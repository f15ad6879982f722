//! Property-based tests for the Euclidean matrix norm machinery.
//!
//! These encode the eight norm properties listed in Section 2 of the paper
//! plus Lemma 2.1 (semi-eigenvectors bound the spectral radius) on random
//! nonnegative matrices — exactly the class the delay-matrix technique
//! manipulates.

use proptest::prelude::*;
use sg_linalg::dense::DenseMatrix;
use sg_linalg::norm::{
    is_semi_eigenvector, spectral_norm_dense, spectral_radius_dense, PowerIterOpts,
};

const OPTS: PowerIterOpts = PowerIterOpts {
    max_iters: 50_000,
    tol: 1e-13,
    seed: 0xFEED,
};

fn nonneg_matrix(max_dim: usize) -> impl Strategy<Value = DenseMatrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(0.0f64..2.0, r * c)
            .prop_map(move |data| DenseMatrix::from_fn(r, c, |i, j| data[i * c + j]))
    })
}

fn nonneg_square(max_dim: usize) -> impl Strategy<Value = DenseMatrix> {
    (1..=max_dim).prop_flat_map(|n| {
        proptest::collection::vec(0.0f64..2.0, n * n)
            .prop_map(move |data| DenseMatrix::from_fn(n, n, |i, j| data[i * n + j]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Property 1 & 2: nonnegativity, zero only for the zero matrix.
    #[test]
    fn norm_nonnegative_and_definite(m in nonneg_matrix(6)) {
        let n = spectral_norm_dense(&m, OPTS);
        prop_assert!(n >= 0.0);
        if m.max_abs() > 1e-9 {
            prop_assert!(n > 0.0);
        }
    }

    // Property 3: absolute homogeneity.
    #[test]
    fn norm_homogeneous(m in nonneg_matrix(6), a in -3.0f64..3.0) {
        let n1 = spectral_norm_dense(&m.scale(a), OPTS);
        let n2 = a.abs() * spectral_norm_dense(&m, OPTS);
        prop_assert!((n1 - n2).abs() <= 1e-6 * (1.0 + n2));
    }

    // Property 4: entrywise monotonicity for nonnegative matrices.
    #[test]
    fn norm_monotone(m in nonneg_matrix(6), extra in 0.0f64..1.0) {
        let bigger = DenseMatrix::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)] + extra);
        prop_assert!(
            spectral_norm_dense(&m, OPTS)
                <= spectral_norm_dense(&bigger, OPTS) + 1e-7
        );
    }

    // Property 5: triangle inequality.
    #[test]
    fn norm_triangle(m in nonneg_matrix(5), k in 0.0f64..2.0) {
        let n = m.scale(k);
        let lhs = spectral_norm_dense(&m.add(&n), OPTS);
        let rhs = spectral_norm_dense(&m, OPTS) + spectral_norm_dense(&n, OPTS);
        prop_assert!(lhs <= rhs + 1e-7 * (1.0 + rhs));
    }

    // Property 6: submultiplicativity (on composable square matrices).
    #[test]
    fn norm_submultiplicative(m in nonneg_square(5), n in nonneg_square(5)) {
        // Make the shapes agree by truncating to the smaller order.
        let k = m.rows().min(n.rows());
        let a = DenseMatrix::from_fn(k, k, |i, j| m[(i, j)]);
        let b = DenseMatrix::from_fn(k, k, |i, j| n[(i, j)]);
        let lhs = spectral_norm_dense(&a.matmul(&b), OPTS);
        let rhs = spectral_norm_dense(&a, OPTS) * spectral_norm_dense(&b, OPTS);
        prop_assert!(lhs <= rhs + 1e-6 * (1.0 + rhs));
    }

    // Property 7: invariance under row/column permutations.
    #[test]
    fn norm_permutation_invariant(m in nonneg_square(6), seed in 0u64..1000) {
        let n = m.rows();
        // Deterministic pseudo-random permutation from the seed.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut s = seed.wrapping_add(1);
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let p = m.permute_rows(&perm).permute_cols(&perm);
        let n1 = spectral_norm_dense(&m, OPTS);
        let n2 = spectral_norm_dense(&p, OPTS);
        prop_assert!((n1 - n2).abs() <= 1e-6 * (1.0 + n1));
    }

    // Property 8: block-diagonal norm is the max of the block norms.
    #[test]
    fn norm_block_diag(a in nonneg_matrix(4), b in nonneg_matrix(4)) {
        let d = DenseMatrix::block_diag(&[a.clone(), b.clone()]);
        let na = spectral_norm_dense(&a, OPTS);
        let nb = spectral_norm_dense(&b, OPTS);
        let nd = spectral_norm_dense(&d, OPTS);
        prop_assert!((nd - na.max(nb)).abs() <= 1e-6 * (1.0 + nd));
    }

    // Lemma 2.1: a positive semi-eigenvector bounds the spectral radius.
    #[test]
    fn semi_eigenvector_bounds_radius(m in nonneg_square(6)) {
        // x = ones; e = max row sum makes (Mx)_i = rowsum_i <= e.
        let n = m.rows();
        let x = vec![1.0; n];
        let e = (0..n).map(|i| m.row(i).iter().sum::<f64>()).fold(0.0_f64, f64::max);
        prop_assert!(is_semi_eigenvector(&m, &x, e + 1e-12, 1e-9));
        let rho = spectral_radius_dense(&m, OPTS);
        prop_assert!(rho <= e + 1e-6 * (1.0 + e));
    }

    // ‖M‖ = √ρ(MᵀM) definition holds numerically.
    #[test]
    fn norm_is_sqrt_gram_radius(m in nonneg_matrix(5)) {
        let gram = m.transpose().matmul(&m);
        let lhs = spectral_norm_dense(&m, OPTS);
        let rhs = spectral_radius_dense(&gram, OPTS).sqrt();
        prop_assert!((lhs - rhs).abs() <= 1e-5 * (1.0 + rhs));
    }
}
