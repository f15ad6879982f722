//! The certified `λ*`: every value the registry's audits report passes an
//! independent Collatz–Wielandt check, and agrees with the plain Rayleigh
//! bisection it replaced, from below.
//!
//! The protocols are exactly the ones the `validate`, `torus-sweep`,
//! `ccc-tour`, `shuffle-exchange`, `knodel-family` and `random-regular`
//! scenarios audit: each network's executable protocol in the scenario's
//! mode, periodic delay digraph, default options.

use sg_delay::bound::{lambda_star, BoundOpts};
use sg_delay::digraph::DelayDigraph;
use sg_delay::weighted::{weight_matrix, weighted_diameter_bound};
use sg_graphs::generators;
use sg_graphs::weighted::WeightedDigraph;
use sg_linalg::norm::{gram_bracket, spectral_norm_sparse, PowerIterOpts};
use sg_linalg::sparse::CsrMatrix;
use sg_scenario::{find, protocol_for};

const AUDIT_SCENARIOS: &[&str] = &[
    "validate",
    "torus-sweep",
    "ccc-tour",
    "shuffle-exchange",
    "knodel-family",
    "random-regular",
];

/// `(name, delay digraph)` for every protocol the audit scenarios audit.
fn audited_digraphs() -> Vec<(String, DelayDigraph)> {
    let mut out = Vec::new();
    for name in AUDIT_SCENARIOS {
        let sc = find(name).unwrap_or_else(|| panic!("scenario {name} is registered"));
        for net in &sc.networks {
            let g = net.build();
            if let Some((_, sp)) = protocol_for(net, &g, sc.mode) {
                out.push((
                    format!("{name}/{}", net.name()),
                    DelayDigraph::periodic(&sp),
                ));
            }
        }
    }
    assert!(out.len() >= 20, "only {} audited protocols", out.len());
    out
}

/// Independent cold-start check, sharing no code with the bracket: power
/// iteration on `AᵀA` from all ones, stopping as soon as the
/// Collatz–Wielandt quotient `maxᵢ (AᵀAx)ᵢ / xᵢ`, widened by `γ` of its
/// operation count and of the entries' `powi` roundings, is `≤ 1`.
/// Returns the smallest widened quotient seen.
fn cold_upper(a: &CsrMatrix, entry_roundings: usize, iters: usize) -> f64 {
    let (rows, cols) = (a.rows(), a.cols());
    let mut col_nnz = vec![0usize; cols];
    let mut row_nnz = 0;
    for i in 0..rows {
        row_nnz = row_nnz.max(a.row_entries(i).count());
        for (j, _) in a.row_entries(i) {
            col_nnz[j] += 1;
        }
    }
    let ops = row_nnz + col_nnz.iter().max().copied().unwrap_or(0) + 4 * entry_roundings + 8;
    let widen = 1.0 + ops as f64 * f64::EPSILON;
    let mut x = vec![1.0; cols];
    let mut ax = vec![0.0; rows];
    let mut bx = vec![0.0; cols];
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        a.matvec(&x, &mut ax);
        a.matvec_transpose(&ax, &mut bx);
        let q = bx
            .iter()
            .zip(&x)
            .map(|(b, xi)| {
                assert!(*xi > 0.0, "the cold check needs x > 0");
                b / xi
            })
            .fold(0.0_f64, f64::max);
        best = best.min(q * widen);
        if best <= 1.0 {
            break;
        }
        let scale = bx.iter().fold(0.0_f64, |m, &v| m.max(v));
        for (xi, b) in x.iter_mut().zip(&bx) {
            *xi = b / scale;
        }
    }
    best
}

fn max_delay(dg: &DelayDigraph) -> usize {
    dg.edges.iter().map(|e| e.2 as usize).max().unwrap_or(0)
}

/// The λ-search this workspace used before certification, kept as the
/// test oracle: 60 halvings of `[10⁻⁹, 1 − 10⁻⁹]`, each comparing a
/// cold-started Rayleigh estimate of `‖M(λ)‖` with 1.
fn rayleigh_bisection(dg: &DelayDigraph) -> Option<f64> {
    let norm = |l: f64| spectral_norm_sparse(&dg.matrix(l), PowerIterOpts::default());
    let (mut lo, mut hi) = (1e-9, 1.0 - 1e-9);
    if norm(hi) <= 1.0 {
        return None;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if norm(mid) <= 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[test]
fn every_audited_lambda_star_passes_a_cold_collatz_wielandt_check() {
    for (name, dg) in audited_digraphs() {
        let ls = lambda_star(&dg, BoundOpts::default()).unwrap_or_else(|| panic!("{name}: no λ*"));
        assert!(ls > 0.0 && ls < 1.0, "{name}: λ* = {ls}");
        let upper = cold_upper(&dg.matrix(ls), max_delay(&dg), 400_000);
        assert!(upper <= 1.0, "{name}: upper(M(λ*))² = {upper} > 1");
    }
}

#[test]
fn certified_lambda_star_is_at_most_the_rayleigh_bisection_and_close() {
    let mut compared = 0;
    for (name, dg) in audited_digraphs() {
        if dg.vertex_count() > 256 {
            continue;
        }
        let new = lambda_star(&dg, BoundOpts::default()).expect("certified λ*");
        let old = rayleigh_bisection(&dg).expect("Rayleigh λ*");
        assert!(new <= old, "{name}: certified {new} > Rayleigh {old}");
        assert!(
            (old - new) <= 1e-9 * old,
            "{name}: certified {new} vs Rayleigh {old}"
        );
        compared += 1;
    }
    assert!(compared >= 8, "only {compared} small protocols compared");
}

#[test]
fn unit_shift_digraphs_keep_lambda_star_one_half() {
    // ‖A(λ)‖ = 2λ on both, so the first midpoint is exactly λ* = ½,
    // where no iteration count can decide.
    for g in [
        generators::de_bruijn_directed(2, 8),
        generators::kautz_directed(2, 7),
    ] {
        let wg = WeightedDigraph::unit_weights(&g);
        let b = weighted_diameter_bound(&wg, BoundOpts::default()).expect("bound exists");
        assert!(
            (0.5 * (1.0 - 1e-9)..=0.5).contains(&b.lambda_star),
            "λ* = {}",
            b.lambda_star
        );
        assert!(cold_upper(&weight_matrix(&wg, b.lambda_star), 1, 10_000) <= 1.0);
    }
}

#[test]
fn degenerate_warm_vectors_still_decide_on_a_delay_matrix() {
    // A warm vector with zero and subnormal components, on a real delay
    // matrix just below and just above its λ*.
    let (name, dg) = audited_digraphs().swap_remove(0);
    let ls = lambda_star(&dg, BoundOpts::default()).expect("λ*");
    for (lambda, feasible) in [(ls * 0.99, true), ((ls * 1.01).min(0.999), false)] {
        let mut x = vec![1.0; dg.vertex_count()];
        x[0] = 0.0;
        x[1] = f64::from_bits(3);
        let b = gram_bracket(&dg.matrix(lambda), &mut x, 20_000, |b| {
            b.compare(1.0).is_some()
        });
        assert_eq!(
            b.compare(1.0),
            Some(feasible),
            "{name} at λ = {lambda}: {b:?}"
        );
    }
}
