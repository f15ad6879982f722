//! Protocol-specific lower bounds: Theorem 4.1 and Theorem 5.1 evaluated
//! on a *concrete* systolic protocol via its delay matrix.
//!
//! Given a protocol, the evaluator finds `λ* = sup{λ : ‖M(λ)‖ ≤ 1}` and
//! solves Theorem 4.1's implicit inequality
//! `t > (log₂ n − 2·log₂ t) / log₂(1/λ*)` for the break-even `t` — every
//! protocol length that actually gossips must exceed it. The separator
//! variant (Theorem 5.1) additionally exploits a far-apart vertex-set pair
//! `(V1, V2)` and maximizes over `λ`.
//!
//! `λ*` is *certified*: the reported value is a `λ` at which
//! `‖M(λ)‖ ≤ 1` has been proved, never a point where a norm estimate
//! merely looked small enough, so it is never above the true supremum
//! and the bound is never too strong. One bisection
//! (`certified_lambda_star`) serves Theorem 4.1, [`broadcast_bound`]
//! and the Section 7 diameter bound. `M(λ)` is entrywise nondecreasing in
//! `λ`, so its norm is too, and each bisection step is a decision made by
//! the certified bracket of [`sg_linalg::norm::gram_bracket`]: a Collatz–Wielandt upper end
//! `≤ 1` (the Lemma 2.1 semi-eigenvector argument applied to `MᵀM`) makes
//! `λ` feasible, a Rayleigh lower end `> 1` makes it infeasible, and a
//! step that stays undecided within its iteration budget counts as
//! infeasible. The power-iteration vector carries over from step to step.

use crate::digraph::DelayDigraph;
use sg_linalg::norm::gram_bracket;
use sg_linalg::roots::bisect_increasing;
use sg_linalg::sparse::CsrMatrix;
use sg_protocol::mode::Mode;
use sg_protocol::protocol::SystolicProtocol;

/// A lower bound on the length of a gossip protocol, from Theorem 4.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolBound {
    /// The largest certified `λ` with `‖M(λ)‖ ≤ 1` (periodic delay
    /// matrix); never above the true supremum.
    pub lambda_star: f64,
    /// `log₂(1/λ*)` — the per-item entropy rate of the protocol.
    pub log_inv_lambda: f64,
    /// First-order bound `log₂(n) / log₂(1/λ*)` (ignoring the
    /// `O(log log n)` correction).
    pub first_order_rounds: f64,
    /// The exact break-even `t` of Theorem 4.1 (with the `−2·log₂ t`
    /// correction): any gossiping execution satisfies `t > rounds`.
    pub rounds: f64,
}

/// Options for the bound evaluators. The certified `λ`-search has no
/// tuning knobs, so there are no fields; the type keeps one options value
/// threaded through every evaluator and batch configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoundOpts {}

/// Iterations one bisection step may spend before it counts as undecided.
const STEP_ITERS: usize = 2_000;
/// Iterations for the endpoint probes and the Theorem 5.1 grid points,
/// where an undecided answer would drop a bound outright.
const PROBE_ITERS: usize = 20_000;
/// Bisection endpoints: `λ*` is searched in `[LAMBDA_MIN, 1 − LAMBDA_MIN]`.
const LAMBDA_MIN: f64 = 1e-9;

/// The largest certified `λ` with `‖A(λ)‖ ≤ 1`, for a nonnegative matrix
/// family whose entries are powers `λʷ` with `1 ≤ w ≤ max_exp` (so `A(λ)`
/// is entrywise nondecreasing in `λ`).
///
/// Returns `None` when `‖A(1 − 10⁻⁹)‖ > 1` is not certified (the family
/// never carries enough mass, and the method yields no bound) or when
/// `‖A(10⁻⁹)‖ ≤ 1` is not. Each stored entry `λʷ` is within `max_exp`
/// roundings of the exact power, which [`NormSqBracket::widen`] accounts
/// for, so the certificate speaks about the exact `A(λ)`.
///
/// The search keeps `lo` certified feasible and `hi` not. It stops once
/// `hi − lo ≤ 10⁻¹²·lo`, or at an undecided step once
/// `hi − lo < 10⁻⁹·lo`: an undecided step sets `hi = mid` but does not end
/// a wide search, because at `λ = λ*` itself (e.g. the first midpoint ½ of
/// a unit-weight de Bruijn digraph, where `‖A(λ)‖ = 2λ`) no finite
/// iteration count decides.
///
/// [`NormSqBracket::widen`]: sg_linalg::norm::NormSqBracket::widen
pub(crate) fn certified_lambda_star(
    max_exp: u32,
    matrix: impl Fn(f64) -> CsrMatrix,
) -> Option<f64> {
    let roundings = max_exp as usize;
    let mut x: Vec<f64> = Vec::new();
    let mut decide = |lambda: f64, iters: usize| {
        let a = matrix(lambda);
        x.resize(a.cols(), 1.0);
        gram_bracket(&a, &mut x, iters, |b| {
            b.widen(roundings).compare(1.0).is_some()
        })
        .widen(roundings)
        .compare(1.0)
    };
    let (mut lo, mut hi) = (LAMBDA_MIN, 1.0 - LAMBDA_MIN);
    if decide(hi, PROBE_ITERS) != Some(false) || decide(lo, PROBE_ITERS) != Some(true) {
        return None;
    }
    while hi - lo > 1e-12 * lo {
        let mid = 0.5 * (lo + hi);
        match decide(mid, STEP_ITERS) {
            Some(true) => lo = mid,
            Some(false) => hi = mid,
            None => {
                hi = mid;
                if hi - lo < 1e-9 * lo {
                    break;
                }
            }
        }
    }
    Some(lo)
}

/// The largest delay of `dg`: the highest power of `λ` in `M(λ)`.
fn max_delay(dg: &DelayDigraph) -> u32 {
    dg.edges.iter().map(|&(_, _, w)| w).max().unwrap_or(0)
}

/// Finds the certified `λ* = sup{λ ∈ (0,1) : ‖M(λ)‖ ≤ 1}` for the
/// periodic delay digraph `dg` by the module's certified bisection. Returns
/// `None` when even `λ → 1⁻` keeps the norm at most 1 (degenerate
/// protocols whose delay digraph carries no mass — then the method yields
/// no bound).
pub fn lambda_star(dg: &DelayDigraph, _opts: BoundOpts) -> Option<f64> {
    certified_lambda_star(max_delay(dg), |l| dg.matrix(l))
}

/// The break-even `t ≥ t0` of an implicit bound `t ≥ rhs(t)` whose right
/// side is nonincreasing in `t`, so `g(t) = t − rhs(t)` is increasing:
/// `t0` itself when `t0 ≥ rhs(t0)` (the bound degenerates), else the root
/// of `g`, bracketed by doubling from `max(t0, rhs(t0), 2)` and bisected.
/// Theorems 4.1 and 5.1, the broadcast bound and the Section 7 diameter
/// bound all end in this solve.
pub(crate) fn breakeven(t0: f64, rhs: impl Fn(f64) -> f64) -> f64 {
    let r0 = rhs(t0);
    if t0 >= r0 {
        return t0;
    }
    let g = |t: f64| t - rhs(t);
    let mut hi = t0.max(r0).max(2.0);
    while g(hi) < 0.0 {
        hi *= 2.0;
    }
    bisect_increasing(g, t0, hi).unwrap_or(t0)
}

/// Theorem 4.1: a lower bound on the gossip time of any execution of `sp`
/// on an `n`-vertex network. `None` when the delay matrix yields no bound.
pub fn theorem_4_1_bound(
    sp: &SystolicProtocol,
    n: usize,
    opts: BoundOpts,
) -> Option<ProtocolBound> {
    let dg = DelayDigraph::periodic(sp);
    theorem_4_1_bound_from_digraph(&dg, n, opts)
}

/// Same as [`theorem_4_1_bound`] but reusing an already-built delay
/// digraph.
pub fn theorem_4_1_bound_from_digraph(
    dg: &DelayDigraph,
    n: usize,
    opts: BoundOpts,
) -> Option<ProtocolBound> {
    let ls = lambda_star(dg, opts)?;
    let log_inv = (1.0 / ls).log2();
    if log_inv <= 0.0 {
        return None;
    }
    let log2n = (n as f64).log2();
    // t > (log₂ n − 2·log₂ t) / log₂(1/λ*).
    let rounds = breakeven(1.0, |t| (log2n - 2.0 * t.log2()) / log_inv);
    Some(ProtocolBound {
        lambda_star: ls,
        log_inv_lambda: log_inv,
        first_order_rounds: log2n / log_inv,
        rounds,
    })
}

/// A separator-strengthened bound (Theorem 5.1) for a concrete protocol.
#[derive(Debug, Clone, Copy)]
pub struct SeparatorProtocolBound {
    /// The maximizing `λ`.
    pub lambda: f64,
    /// A certified upper bound on `‖M(λ)‖` at the maximizer.
    pub norm: f64,
    /// The break-even `t`: any gossiping execution satisfies `t > rounds`.
    pub rounds: f64,
}

/// Theorem 5.1 evaluated on a concrete protocol and a concrete separator:
/// `sep_distance = dist(V1, V2)` and `sep_min_size = min(|V1|, |V2|)`.
/// Scans `grid` values of `λ` (plus the Theorem 4.1 maximizer) and keeps
/// the best break-even `t`.
pub fn theorem_5_1_bound(
    sp: &SystolicProtocol,
    sep_distance: u32,
    sep_min_size: usize,
    grid: usize,
    opts: BoundOpts,
) -> Option<SeparatorProtocolBound> {
    assert!(grid >= 2);
    let dg = DelayDigraph::periodic(sp);
    let roundings = max_delay(&dg) as usize;
    let d = sep_distance as f64;
    let log2c = (sep_min_size as f64).log2();
    let mut best: Option<SeparatorProtocolBound> = None;
    // Candidate λ values: uniform grid on (0, 1), truncated to the
    // feasible region ‖M(λ)‖ ≤ 1.
    let mut candidates: Vec<f64> = (1..=grid).map(|i| i as f64 / (grid + 1) as f64).collect();
    if let Some(ls) = lambda_star(&dg, opts) {
        candidates.push(ls);
    }
    // The bound falls as ‖M‖ grows, so it takes the certified upper end
    // of the bracket; the power-iteration vector carries across points.
    let mut x = vec![1.0; dg.vertex_count()];
    for l in candidates {
        let upper = gram_bracket(&dg.matrix(l), &mut x, PROBE_ITERS, |b| {
            let b = b.widen(roundings);
            b.lower > 1.0 || b.upper - b.lower <= 1e-12 * b.upper
        })
        .widen(roundings)
        .upper;
        if upper > 1.0 || upper <= 0.0 {
            continue;
        }
        let norm = upper.sqrt();
        let log_inv = (1.0 / l).log2();
        // t ≥ (log₂ c − (d−1)·log₂‖M‖ − log₂(t−d+2) − log₂ t) / log₂(1/λ),
        // on the domain t ≥ d.
        let bound = breakeven(d.max(1.0), |t| {
            (log2c - (d - 1.0) * norm.log2() - (t - d + 2.0).max(1.0).log2() - t.log2()) / log_inv
        });
        if best.is_none_or(|b| bound > b.rounds) {
            best = Some(SeparatorProtocolBound {
                lambda: l,
                norm,
                rounds: bound,
            });
        }
    }
    best
}

/// A broadcast-time analogue of Theorem 4.1.
///
/// For broadcasting from a single source `x`, each destination `z`
/// contributes one far pair in the delay digraph, but all `n − 1` pairs
/// share the `≤ t` source activations of `x`, so the comparison matrix
/// `N` has its ones concentrated on at most `t` rows and
/// `‖N‖ ≥ √((n−1)/t)`. The chain of Theorem 4.1 then gives
/// `t ≥ (½·log₂(n−1) − 3/2·log₂ t) / log₂(1/λ*)`.
///
/// Note: this is weaker than the information-theoretic `log₂ n` for fast
/// protocols (the factor ½), but it becomes the stronger bound when the
/// protocol's `λ*` is large (slow, heavily-constrained periods).
pub fn broadcast_bound(sp: &SystolicProtocol, n: usize, opts: BoundOpts) -> Option<ProtocolBound> {
    let dg = DelayDigraph::periodic(sp);
    let ls = lambda_star(&dg, opts)?;
    let log_inv = (1.0 / ls).log2();
    if log_inv <= 0.0 || n < 2 {
        return None;
    }
    let a = 0.5 * ((n - 1) as f64).log2();
    let rounds = breakeven(1.0, |t| (a - 1.5 * t.log2()) / log_inv);
    Some(ProtocolBound {
        lambda_star: ls,
        log_inv_lambda: log_inv,
        first_order_rounds: a / log_inv,
        rounds,
    })
}

/// The degenerate `s = 2` bound from the start of Section 4, the one
/// statement of that floor in every mode. With period 2 the activated
/// arcs form a fixed subgraph, the union of the two rounds:
///
/// * directed and half-duplex: each vertex has at most one incoming and
///   one outgoing arc per round pair, so items advance at most one arc
///   per round along a fixed directed structure and gossip needs at
///   least `n − 1` rounds;
/// * full-duplex: the two rounds are matchings, so the activated graph
///   has degree ≤ 2. A connected one is a Hamiltonian path or cycle,
///   whose diameter is at least `⌊n/2⌋`, and gossip needs at least that
///   many rounds.
pub fn s2_lower_bound(sp: &SystolicProtocol, n: usize) -> Option<usize> {
    (sp.s() == 2 && n >= 2).then(|| match sp.mode() {
        Mode::FullDuplex => n / 2,
        Mode::Directed | Mode::HalfDuplex => n - 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_protocol::builders;
    use sg_sim::engine::systolic_gossip_time;

    fn opts() -> BoundOpts {
        BoundOpts::default()
    }

    #[test]
    fn bound_is_sound_on_hypercube_sweep() {
        // Theorem 4.1 must never exceed the measured gossip time.
        for k in 2..=6usize {
            let sp = builders::hypercube_sweep(k);
            let n = 1usize << k;
            let measured = systolic_gossip_time(&sp, n, 10 * k).expect("completes") as f64;
            if let Some(b) = theorem_4_1_bound(&sp, n, opts()) {
                assert!(
                    b.rounds <= measured + 1e-9,
                    "Q_{k}: bound {} > measured {measured}",
                    b.rounds
                );
                assert!(b.lambda_star > 0.0 && b.lambda_star < 1.0);
            }
        }
    }

    #[test]
    fn bound_is_sound_on_paths_cycles_grids() {
        let cases: Vec<(SystolicProtocolCase, usize)> = vec![
            (SystolicProtocolCase::Path(9), 9),
            (SystolicProtocolCase::CycleRrll(10), 10),
            (SystolicProtocolCase::Grid(4, 4), 16),
            (SystolicProtocolCase::Knodel(4, 16), 16),
        ];
        for (case, n) in cases {
            let sp = case.build();
            let measured = systolic_gossip_time(&sp, n, 200 * n).expect("completes") as f64;
            if let Some(b) = theorem_4_1_bound(&sp, n, opts()) {
                assert!(
                    b.rounds <= measured + 1e-9,
                    "{case:?}: bound {} > measured {measured}",
                    b.rounds
                );
            }
        }
    }

    #[derive(Debug)]
    enum SystolicProtocolCase {
        Path(usize),
        CycleRrll(usize),
        Grid(usize, usize),
        Knodel(usize, usize),
    }

    impl SystolicProtocolCase {
        fn build(&self) -> sg_protocol::protocol::SystolicProtocol {
            match *self {
                SystolicProtocolCase::Path(n) => builders::path_rrll(n),
                SystolicProtocolCase::CycleRrll(n) => builders::cycle_rrll(n),
                SystolicProtocolCase::Grid(w, h) => builders::grid_traffic_light(w, h),
                SystolicProtocolCase::Knodel(d, n) => builders::knodel_sweep(d, n),
            }
        }
    }

    #[test]
    fn lambda_star_monotonicity_with_protocol_speed() {
        // The full-duplex hypercube sweep moves information faster than
        // the half-duplex RRLL path: its λ* must be smaller (items decay
        // less per round — harder protocol to bound).
        let fast = builders::hypercube_sweep(4);
        let slow = builders::path_rrll(16);
        let lf = lambda_star(&DelayDigraph::periodic(&fast), opts()).expect("fast has bound");
        let ls = lambda_star(&DelayDigraph::periodic(&slow), opts()).expect("slow has bound");
        assert!(
            lf < ls,
            "fast protocol should have smaller λ*: {lf} vs {ls}"
        );
    }

    #[test]
    fn separator_bound_at_least_first_order_on_path_ends() {
        // On the RRLL path, V1 = {0}, V2 = {n−1} with distance n−1 and
        // min size 1: Theorem 5.1 reduces to a travel-time bound.
        let n = 12;
        let sp = builders::path_rrll(n);
        let b = theorem_5_1_bound(&sp, (n - 1) as u32, 1, 24, opts()).expect("bound");
        let measured = systolic_gossip_time(&sp, n, 100 * n).expect("completes") as f64;
        assert!(b.rounds <= measured + 1e-9);
        // The travel-time structure must show: at least the distance.
        assert!(b.rounds >= (n - 1) as f64 - 1e-9, "rounds = {}", b.rounds);
    }

    #[test]
    fn s2_bound_matches_cycle_protocol() {
        let n = 10;
        let sp = builders::cycle_two_color_directed(n);
        assert_eq!(s2_lower_bound(&sp, n), Some(n - 1));
        let measured = systolic_gossip_time(&sp, n, 4 * n).expect("completes");
        assert!(measured >= n - 1);
        // Non-2-periodic protocols return None.
        assert_eq!(s2_lower_bound(&builders::path_rrll(6), 6), None);
        // Full-duplex: a Hamiltonian cycle's diameter, met exactly.
        let g = sg_graphs::generators::cycle(n);
        let sp = builders::full_duplex_coloring_periodic(&g);
        assert_eq!(s2_lower_bound(&sp, n), Some(n / 2));
        assert_eq!(systolic_gossip_time(&sp, n, 4 * n), Some(n / 2));
    }

    #[test]
    fn broadcast_bound_sound_on_many_protocols() {
        use sg_sim::engine::systolic_broadcast_time;
        let cases: Vec<(sg_protocol::protocol::SystolicProtocol, usize)> = vec![
            (builders::path_rrll(12), 12),
            (builders::cycle_rrll(12), 12),
            (builders::hypercube_sweep(5), 32),
            (builders::grid_traffic_light(4, 4), 16),
        ];
        for (sp, n) in cases {
            let Some(b) = broadcast_bound(&sp, n, opts()) else {
                continue;
            };
            // Broadcast from every source must respect the bound.
            for src in [0usize, n / 2, n - 1] {
                let t = systolic_broadcast_time(&sp, n, src, 10_000).expect("broadcast completes")
                    as f64;
                assert!(
                    b.rounds <= t + 1e-9,
                    "broadcast bound {} > measured {t} (src {src})",
                    b.rounds
                );
            }
        }
    }

    #[test]
    fn broadcast_bound_weaker_than_gossip_bound() {
        // Same λ*, but half the log coefficient: the gossip bound must
        // dominate.
        let sp = builders::path_rrll(16);
        let g = theorem_4_1_bound(&sp, 16, opts()).unwrap();
        let b = broadcast_bound(&sp, 16, opts()).unwrap();
        assert!(b.rounds <= g.rounds + 1e-9);
        assert!((b.lambda_star - g.lambda_star).abs() < 1e-12);
    }

    #[test]
    fn degenerate_protocol_has_no_bound() {
        // A single activated arc, alone in its period: the delay digraph
        // of a 1-edge path protocol on 2 vertices has arcs only between
        // the two opposite activations.
        let sp = builders::path_rrll(2);
        // Norm is positive here (the two activations feed each other), so
        // a bound exists; check it is sound and tiny.
        if let Some(b) = theorem_4_1_bound(&sp, 2, opts()) {
            let measured = systolic_gossip_time(&sp, 2, 100).unwrap() as f64;
            assert!(b.rounds <= measured + 1e-9);
        }
    }
}
