//! Consistency of the literature registry: every quoted coefficient is
//! sane, the entries agree with the figure cells the engine computes,
//! and no lower bound crosses a matching upper bound.

use sg_bounds::registry::{known_results, upper_bounds_for, BoundKind, LiteratureEntry};
use sg_bounds::{c_broadcast, e_coefficient, e_general_nonsystolic, e_separator};
use sg_bounds::{BoundMode, Period};
use sg_graphs::separator::{params_de_bruijn, params_wbf_undirected};

#[test]
fn every_coefficient_is_positive_and_finite() {
    let all = known_results();
    assert!(all.len() >= 10, "registry unexpectedly small");
    for e in &all {
        assert!(
            e.coefficient.is_finite() && e.coefficient > 0.0,
            "{} / {} / {}: coefficient {}",
            e.network,
            e.mode,
            e.problem,
            e.coefficient
        );
        assert!(!e.network.is_empty() && !e.source.is_empty());
    }
}

#[test]
fn general_lower_bound_matches_fig4_limit() {
    // The [4,17,15,26] constant the introduction quotes is exactly the
    // non-systolic limit of the Fig. 4 row.
    let quoted = known_results()
        .into_iter()
        .find(|e| e.network == "any graph" && e.kind == BoundKind::LowerBound)
        .expect("generic gossip lower bound");
    assert!((quoted.coefficient - e_general_nonsystolic()).abs() < 1.2e-4);
    // …and the s = ∞ cell of the Fig. 4 row agrees.
    let last = e_coefficient(BoundMode::HalfDuplex, Period::NonSystolic);
    assert!((quoted.coefficient - last).abs() < 1.2e-4);
}

#[test]
fn broadcast_constants_match_the_fig8_general_row() {
    // The [22,2] degree-parameter broadcasting constants are the same
    // numbers as Fig. 8's general full-duplex row (c(s − 1) = e_fd(s)).
    let quoted: Vec<LiteratureEntry> = known_results()
        .into_iter()
        .filter(|e| e.problem == "broadcast" && e.network.starts_with("degree parameter"))
        .collect();
    assert_eq!(quoted.len(), 3);
    for e in &quoted {
        let d: usize = e
            .network
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .expect("degree parameter");
        assert!(
            (e.coefficient - c_broadcast(d)).abs() < 1.2e-4,
            "c({d}) mismatch: {} vs {}",
            e.coefficient,
            c_broadcast(d)
        );
    }
    // Cross-check against the Fig. 8 general row (the cells at
    // s = 3, 4, 5 are c(2), c(3), c(4)).
    for (s, d) in [(3usize, 2usize), (4, 3), (5, 4)] {
        let cell = e_coefficient(BoundMode::FullDuplex, Period::Systolic(s));
        assert!(
            (cell - c_broadcast(d)).abs() < 1.2e-4,
            "Fig. 8 s = {s} vs c({d})"
        );
    }
}

#[test]
fn lower_bounds_never_exceed_matching_upper_bounds() {
    let all = known_results();
    for lb in all.iter().filter(|e| e.kind == BoundKind::LowerBound) {
        for ub in all.iter().filter(|e| {
            e.kind == BoundKind::UpperBound
                && e.network == lb.network
                && e.mode == lb.mode
                && e.problem == lb.problem
        }) {
            assert!(
                lb.coefficient <= ub.coefficient + 1e-9,
                "{} / {} / {}: LB {} ({}) > UB {} ({})",
                lb.network,
                lb.mode,
                lb.problem,
                lb.coefficient,
                lb.source,
                ub.coefficient,
                ub.source
            );
        }
    }
    // The engine's own lower bounds must respect the registry's upper
    // bounds too (systolic gossip upper bounds cover every period the
    // figures sweep).
    for (family, params) in [
        ("WBF(2,D)", params_wbf_undirected(2)),
        ("DB(2,D)", params_de_bruijn(2)),
    ] {
        let ubs = upper_bounds_for(family);
        assert!(!ubs.is_empty(), "{family}: no upper bounds registered");
        let nonsys = e_separator(params, BoundMode::HalfDuplex, Period::NonSystolic).e;
        for ub in &ubs {
            assert!(
                nonsys <= ub.coefficient + 1e-9,
                "{family}: our s = ∞ bound {} crosses {} from {}",
                nonsys,
                ub.coefficient,
                ub.source
            );
        }
    }
}

#[test]
fn paper_improves_on_the_quoted_broadcast_bounds() {
    // The paper's headline: its non-systolic gossip bounds strictly
    // improve on the best structure-aware *broadcast* bounds of [23]
    // for the same families — the registry must tell that story.
    let all = known_results();
    for (family, params) in [
        ("WBF(2,D)", params_wbf_undirected(2)),
        ("DB(2,D)", params_de_bruijn(2)),
    ] {
        let broadcast_lb = all
            .iter()
            .find(|e| e.network == family && e.problem == "broadcast")
            .unwrap_or_else(|| panic!("{family}: broadcast LB missing"));
        let ours = e_separator(params, BoundMode::HalfDuplex, Period::NonSystolic).e;
        assert!(
            ours > broadcast_lb.coefficient + 1e-3,
            "{family}: {ours} does not improve on [23]'s {}",
            broadcast_lb.coefficient
        );
    }
}
