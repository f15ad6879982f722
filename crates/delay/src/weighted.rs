//! The paper's Section 7 extension: lower bounds on the **diameter of
//! weighted digraphs** by the same matrix-norm argument.
//!
//! Replace the delay matrix by `A(λ)[u, v] = λ^{w(u,v)}` over the arcs of
//! a positively-weighted digraph. Then `(A^k)[x, z] = Σ λ^{len(P)}` over
//! `k`-arc paths `P` from `x` to `z`, exactly the path-sum property of
//! Definition 3.4. If the weighted diameter is `L`, then every ordered
//! pair `(x, z)` has a path of length `≤ L` with at most `L` arcs
//! (weights are `≥ 1`), so `Σ_{k ≤ L} (A^k)[x, z] ≥ λ^L` and, summing
//! over all pairs against `J − I` (whose norm is `n − 1`),
//!
//! ```text
//! ‖A(λ)‖ ≤ 1  ⟹  L ≥ (log₂(n−1) − log₂ L) / log₂(1/λ).
//! ```
//!
//! The bound is tight on the shift networks: for unit-weight `DB→(d, D)`
//! the adjacency norm is `d`, so `λ* = 1/d` and the bound is
//! `≈ log_d(n) = D` — the true diameter.

use crate::bound::{breakeven, certified_lambda_star, BoundOpts};
use sg_graphs::weighted::WeightedDigraph;
use sg_linalg::sparse::{CooBuilder, CsrMatrix};

/// A lower bound on the weighted diameter of a digraph.
#[derive(Debug, Clone, Copy)]
pub struct DiameterBound {
    /// The largest certified `λ` with `‖A(λ)‖ ≤ 1`; never above the true
    /// supremum.
    pub lambda_star: f64,
    /// The break-even `L`: the weighted diameter satisfies
    /// `diam ≥ rounds`.
    pub rounds: f64,
    /// First-order form `log₂(n−1)/log₂(1/λ*)` without the `log L`
    /// correction.
    pub first_order: f64,
}

/// Instantiates `A(λ)` for a weighted digraph.
pub fn weight_matrix(wg: &WeightedDigraph, lambda: f64) -> CsrMatrix {
    let n = wg.vertex_count();
    let mut b = CooBuilder::new(n, n);
    for (arc, w) in wg.arcs() {
        b.push(arc.from as usize, arc.to as usize, lambda.powi(w as i32));
    }
    b.build()
}

/// The Section 7 diameter bound, with `λ*` certified by the same
/// bisection as Theorem 4.1 (so it is never above the true supremum).
/// Returns `None` for digraphs whose weight matrix never reaches norm 1
/// (e.g. too few arcs to carry any mass — the method then says nothing).
pub fn weighted_diameter_bound(wg: &WeightedDigraph, _opts: BoundOpts) -> Option<DiameterBound> {
    let n = wg.vertex_count();
    if n < 2 {
        return None;
    }
    let lambda_star = certified_lambda_star(wg.max_weight(), |l| weight_matrix(wg, l))?;
    let log_inv = (1.0 / lambda_star).log2();
    if log_inv <= 0.0 {
        return None;
    }
    // L ≥ (log₂(n−1) − log₂ L) / log₂(1/λ*).
    let a = ((n - 1) as f64).log2();
    Some(DiameterBound {
        lambda_star,
        rounds: breakeven(1.0, |l| (a - l.log2()) / log_inv),
        first_order: a / log_inv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graphs::generators;
    use sg_graphs::weighted::WeightedDigraph;

    fn opts() -> BoundOpts {
        BoundOpts::default()
    }

    #[test]
    fn sound_on_unit_de_bruijn_and_nearly_tight() {
        for dd in [4usize, 6, 8] {
            let g = generators::de_bruijn_directed(2, dd);
            let wg = WeightedDigraph::unit_weights(&g);
            let b = weighted_diameter_bound(&wg, opts()).expect("bound exists");
            let true_diam = wg.diameter().unwrap() as f64;
            assert!(
                b.rounds <= true_diam + 1e-9,
                "DB(2,{dd}): bound {} > diam {true_diam}",
                b.rounds
            );
            // Tightness: within log_d(D) + 2 of the truth.
            assert!(
                b.rounds >= true_diam - (true_diam.log2() + 2.0),
                "DB(2,{dd}): bound {} too loose vs {true_diam}",
                b.rounds
            );
            // λ* ≈ 1/d = 1/2 for the 2-regular shift digraph (slightly
            // above: the two self-loop-truncated vertices reduce the norm).
            assert!((b.lambda_star - 0.5).abs() < 0.05, "λ* = {}", b.lambda_star);
        }
    }

    #[test]
    fn sound_on_kautz() {
        let g = generators::kautz_directed(2, 6);
        let wg = WeightedDigraph::unit_weights(&g);
        let b = weighted_diameter_bound(&wg, opts()).expect("bound exists");
        assert!(b.rounds <= wg.diameter().unwrap() as f64 + 1e-9);
    }

    #[test]
    fn scaling_weights_scales_the_bound() {
        // Multiplying every weight by c multiplies both the true diameter
        // and (roughly) the bound by c: λ* becomes λ*^(1/c).
        let g = generators::de_bruijn_directed(2, 5);
        let unit = WeightedDigraph::unit_weights(&g);
        let tripled = WeightedDigraph::from_arcs(
            g.vertex_count(),
            g.arcs().map(|a| (a.from as usize, a.to as usize, 3)),
        );
        let b1 = weighted_diameter_bound(&unit, opts()).unwrap();
        let b3 = weighted_diameter_bound(&tripled, opts()).unwrap();
        assert!(b3.rounds <= tripled.diameter().unwrap() as f64 + 1e-9);
        assert!(
            (b3.first_order - 3.0 * b1.first_order).abs() < 0.05 * b3.first_order,
            "{} vs 3×{}",
            b3.first_order,
            b1.first_order
        );
    }

    #[test]
    fn sound_on_weighted_cycle() {
        // The method is very weak on a cycle (norm ~1 only near λ = 1),
        // but must remain *sound*.
        let n = 12;
        let arcs: Vec<(usize, usize, u32)> = (0..n)
            .map(|i| (i, (i + 1) % n, 1 + (i % 3) as u32))
            .collect();
        let wg = WeightedDigraph::from_arcs(n, arcs);
        if let Some(b) = weighted_diameter_bound(&wg, opts()) {
            assert!(b.rounds <= wg.diameter().unwrap() as f64 + 1e-9);
        }
    }

    #[test]
    fn sound_on_complete_digraph() {
        let g = generators::complete(10);
        let wg = WeightedDigraph::unit_weights(&g);
        let b = weighted_diameter_bound(&wg, opts()).expect("bound exists");
        // diam = 1; the bound must not exceed it.
        assert!(b.rounds <= 1.0 + 1e-9);
    }

    #[test]
    fn mixed_weights_sound() {
        // de Bruijn with weight 1 on append-0 arcs and 4 on append-1.
        let g = generators::de_bruijn_directed(2, 6);
        let wg = WeightedDigraph::from_arcs(
            g.vertex_count(),
            g.arcs().map(|a| {
                (
                    a.from as usize,
                    a.to as usize,
                    if a.to % 2 == 0 { 1 } else { 4 },
                )
            }),
        );
        let b = weighted_diameter_bound(&wg, opts()).expect("bound exists");
        let true_diam = wg.diameter().unwrap() as f64;
        assert!(
            b.rounds <= true_diam + 1e-9,
            "bound {} > diam {true_diam}",
            b.rounds
        );
        // Heavier arcs must push the bound above the unit-weight one.
        let unit = weighted_diameter_bound(&WeightedDigraph::unit_weights(&g), opts()).unwrap();
        assert!(b.rounds > unit.rounds);
    }

    #[test]
    fn tiny_graphs_yield_no_bound() {
        let wg = WeightedDigraph::from_arcs(1, []);
        assert!(weighted_diameter_bound(&wg, opts()).is_none());
        // A single arc cannot reach norm 1 below λ = 1.
        let wg = WeightedDigraph::from_arcs(2, [(0, 1, 1)]);
        assert!(weighted_diameter_bound(&wg, opts()).is_none());
    }
}
