//! Linear-algebra substrate for the systolic-gossip reproduction.
//!
//! The lower-bound technique of Flammini & Pérennès (Section 2 of the paper)
//! relies on a small set of classical facts about the Euclidean matrix norm
//! of nonnegative matrices:
//!
//! * `‖M‖₂ = √ρ(MᵀM)` where `ρ` is the spectral radius,
//! * nonnegative monotonicity (`M ≤ N ⇒ ‖M‖ ≤ ‖N‖`),
//! * sub-multiplicativity and the triangle inequality,
//! * block-diagonal decomposition (`‖M‖ = maxᵢ ‖Mᵢ‖`),
//! * positive *semi-eigenvectors* (`Mx ≤ e·x` with `x > 0` implies
//!   `ρ(M) ≤ e`, Lemma 2.1).
//!
//! This crate implements exactly what the paper needs, from scratch:
//! dense and CSR sparse matrices over `f64`, a certified Rayleigh /
//! Collatz–Wielandt bracket on the spectral norm of a nonnegative matrix
//! (plus plain power-iteration estimates of norms and radii), the gossip
//! polynomials `p_i(λ) = 1 + λ² + ⋯ + λ^{2i−2}`, scalar root finding by
//! bisection and derivative-free 1-D maximization.
//!
//! Everything is deterministic: random starting vectors for power iteration
//! use a seeded [xorshift](rng::XorShift64) generator so that test failures
//! reproduce.

#![forbid(unsafe_code)]

pub mod dense;
pub mod norm;
pub mod optimize;
pub mod poly;
pub mod rng;
pub mod roots;
pub mod sparse;
pub mod vector;

pub use dense::DenseMatrix;
pub use norm::{spectral_norm_dense, spectral_norm_sparse, spectral_radius_dense, PowerIterOpts};
pub use optimize::{golden_section_max, maximize_scan_refine};
pub use poly::gossip_p_eval;
pub use roots::{bisect_increasing, RootError};
pub use sparse::{CooBuilder, CsrMatrix};

/// Machine-precision-ish comparison helper used across the workspace tests.
///
/// Returns `true` if `a` and `b` agree to within `tol` absolutely or
/// relatively (whichever is looser), the standard mixed criterion.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
        assert!(approx_eq(0.0, 0.0, 1e-15));
    }
}
