//! Bounded-degree broadcasting coefficients `c(d)` of Liestman–Peters \[22\]
//! and Bermond–Hell–Liestman–Peters \[2\].
//!
//! For networks whose degree parameter is `d` (max out-degree for
//! digraphs, max degree − 1 for undirected graphs), broadcasting takes at
//! least `c(d)·log₂ n` rounds, where `c(d) = 1/log₂(x_d)` and `x_d` is the
//! unique root in `(1, 2)` of `x^d = x^{d−1} + x^{d−2} + ⋯ + 1` (the
//! generalized Fibonacci/d-bonacci characteristic). The paper cites
//! `c(2) = 1.4404`, `c(3) = 1.1374`, `c(4) = 1.0562` — and Section 6
//! observes that the *general* full-duplex `s`-systolic gossip bound
//! coincides with `c(s−1)`, because a full-duplex systolic gossip protocol
//! can be transformed into a bounded-degree broadcast protocol (\[8\]).

use sg_linalg::roots::bisect_increasing;

/// The `d`-bonacci constant `x_d ∈ (1, 2)`: root of
/// `x^d − x^{d−1} − ⋯ − 1`.
pub fn dbonacci_root(d: usize) -> f64 {
    assert!(d >= 1);
    if d == 1 {
        // x = 1 degenerate: broadcasting on degree-1 networks is linear.
        return 1.0;
    }
    let g = |x: f64| {
        // x^d − Σ_{i<d} x^i; rewrite via geometric sum for stability:
        // for x ≠ 1: x^d − (x^d − 1)/(x − 1).
        x.powi(d as i32) - (x.powi(d as i32) - 1.0) / (x - 1.0)
    };
    // g < 0 on (1, x_d) and g > 0 on (x_d, 2]: one sign change, all the
    // bisection needs.
    bisect_increasing(g, 1.0 + 1e-9, 2.0).expect("d-bonacci root bracketed in (1,2)")
}

/// The broadcasting coefficient `c(d) = 1/log₂(x_d)`; broadcast (hence
/// gossip) time on degree-parameter-`d` networks is at least
/// `c(d)·log₂ n`.
pub fn c_broadcast(d: usize) -> f64 {
    if d == 1 {
        return f64::INFINITY;
    }
    1.0 / dbonacci_root(d).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::general::e_full_duplex;
    use sg_linalg::approx_eq;

    #[test]
    fn paper_cited_values() {
        assert!(approx_eq(c_broadcast(2), 1.4404, 1.2e-4));
        assert!(approx_eq(c_broadcast(3), 1.1374, 1.2e-4));
        assert!(approx_eq(c_broadcast(4), 1.0562, 1.2e-4));
    }

    #[test]
    fn roots_are_the_classic_constants() {
        // Golden ratio, tribonacci, tetranacci.
        assert!(approx_eq(dbonacci_root(2), 1.618_033_988_75, 1e-10));
        assert!(approx_eq(dbonacci_root(3), 1.839_286_755_21, 1e-10));
        assert!(approx_eq(dbonacci_root(4), 1.927_561_975_48, 1e-9));
    }

    #[test]
    fn c_decreases_to_one() {
        let mut prev = f64::INFINITY;
        for d in 2..30 {
            let c = c_broadcast(d);
            assert!(c < prev);
            assert!(c > 1.0);
            prev = c;
        }
        assert!(c_broadcast(40) - 1.0 < 1e-6);
    }

    #[test]
    fn full_duplex_systolic_equals_broadcast_constant() {
        // Section 6: the general full-duplex s-systolic bound coincides
        // with the degree-(s−1) broadcasting bound.
        for s in 3..12 {
            assert!(
                approx_eq(e_full_duplex(s), c_broadcast(s - 1), 1e-9),
                "s = {s}"
            );
        }
    }

    #[test]
    fn degenerate_degree_one() {
        assert_eq!(c_broadcast(1), f64::INFINITY);
        assert_eq!(dbonacci_root(1), 1.0);
    }
}
