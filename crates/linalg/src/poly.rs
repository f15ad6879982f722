//! The paper's gossip polynomials `p_i(λ)`.
//!
//! Definition (Section 1/4 of the paper): for any integer `i > 0`,
//! `p_i(λ) = 1 + λ² + λ⁴ + ⋯ + λ^{2i−2}` — `i` terms with even exponents.
//! They satisfy the splicing identity used throughout Lemma 4.2:
//! `p_i(λ) + λ^{2i}·p_j(λ) = p_{i+j}(λ)`, and the concavity-style
//! inequality of Lemma 4.3's proof:
//! `p_{i+1}(λ)·p_{j−1}(λ) < p_i(λ)·p_j(λ)` for `i ≥ j` and `λ ∈ (0,1)`,
//! which is why the worst split of a period `s` is `⌈s/2⌉ / ⌊s/2⌋`.

/// `p_i(λ)` by its closed form `(1 − λ^{2i}) / (1 − λ²)` for `λ ≠ 1`, else `i`.
///
/// This is the hot path of every bound computation in `sg-bounds`.
#[inline]
pub fn gossip_p_eval(i: usize, lambda: f64) -> f64 {
    if i == 0 {
        return 0.0;
    }
    let l2 = lambda * lambda;
    if (1.0 - l2).abs() < 1e-12 {
        return i as f64;
    }
    (1.0 - l2.powi(i as i32)) / (1.0 - l2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// `p_i(λ)` as the paper writes it: `Σ_{k<i} λ^{2k}`.
    fn direct_sum(i: usize, l: f64) -> f64 {
        (0..i).map(|k| l.powi(2 * k as i32)).sum()
    }

    #[test]
    fn gossip_p_small_cases() {
        for &l in &[0.0, 0.5, 2.0] {
            assert_eq!(gossip_p_eval(0, l), 0.0);
            assert_eq!(gossip_p_eval(1, l), 1.0);
            assert_eq!(gossip_p_eval(2, l), 1.0 + l * l);
            assert!(approx_eq(
                gossip_p_eval(3, l),
                1.0 + l * l + l.powi(4),
                1e-15
            ));
        }
    }

    #[test]
    fn gossip_p_eval_matches_polynomial() {
        for i in 0..12 {
            for &l in &[0.0, 0.1, 0.5, 0.618, 0.9, 0.99, 1.0, 1.5] {
                assert!(
                    approx_eq(direct_sum(i, l), gossip_p_eval(i, l), 1e-10),
                    "i={i} lambda={l}"
                );
            }
        }
    }

    #[test]
    fn splicing_identity() {
        // p_i + λ^{2i} p_j = p_{i+j}  (used in Lemma 4.2's computation).
        for i in 0..8 {
            for j in 0..8 {
                for &l in &[0.3, 0.618, 0.95] {
                    let lhs = gossip_p_eval(i, l) + l.powi(2 * i as i32) * gossip_p_eval(j, l);
                    let rhs = gossip_p_eval(i + j, l);
                    assert!(approx_eq(lhs, rhs, 1e-10), "i={i} j={j} l={l}");
                }
            }
        }
    }

    #[test]
    fn balanced_split_maximizes_product() {
        // Lemma 4.3's proof: for i >= j, p_{i+1} p_{j-1} < p_i p_j on (0,1).
        // Hence among all splits a+b = s the product p_a p_b is maximized by
        // the balanced split {⌈s/2⌉, ⌊s/2⌋}.
        for s in 2..=12usize {
            for &l in &[0.2, 0.5, 0.7, 0.9] {
                let best = gossip_p_eval(s.div_ceil(2), l) * gossip_p_eval(s / 2, l);
                for a in 0..=s {
                    let b = s - a;
                    let prod = gossip_p_eval(a, l) * gossip_p_eval(b, l);
                    assert!(
                        prod <= best + 1e-12,
                        "split {a}+{b} beats balanced at l={l}: {prod} > {best}"
                    );
                }
            }
        }
    }

    #[test]
    fn p_is_increasing_in_i_and_lambda() {
        for i in 1..10usize {
            assert!(gossip_p_eval(i + 1, 0.5) > gossip_p_eval(i, 0.5));
        }
        for w in 1..20 {
            let a = w as f64 / 20.0;
            let b = (w + 1) as f64 / 20.0;
            assert!(gossip_p_eval(5, b) >= gossip_p_eval(5, a));
        }
    }
}
