//! Determinism across thread budgets, and the exact counters of the
//! kernel.
//!
//! The parallel fixed-cap pass claims bit-identical outcomes at any
//! thread count: the visited node set is a pure function of the
//! instance, so every counter — and the `(value, prefix)`-minimal
//! witness — must match. Whether the optima themselves are right is
//! `brute_force_oracle.rs`'s question.

use sg_search::{enumerate, EnumerateConfig};
use systolic_gossip::sg_graphs::digraph::Arc;
use systolic_gossip::sg_protocol::mode::Mode;
use systolic_gossip::sg_protocol::round::Round;
use systolic_gossip::Network;

/// Every (network, period) row of the registry's `enum-*` scenarios,
/// hard-coded so a registry edit cannot silently shrink this suite.
fn scenario_instances() -> Vec<(Network, Mode, usize)> {
    vec![
        (Network::Hypercube { k: 3 }, Mode::FullDuplex, 2),
        (Network::Cycle { n: 8 }, Mode::FullDuplex, 3),
        (Network::Cycle { n: 6 }, Mode::Directed, 2),
        (Network::Cycle { n: 6 }, Mode::Directed, 3),
        (Network::Path { n: 6 }, Mode::Directed, 3),
        (Network::Path { n: 6 }, Mode::Directed, 4),
        (Network::Knodel { delta: 3, n: 8 }, Mode::FullDuplex, 2),
        (Network::Knodel { delta: 3, n: 8 }, Mode::FullDuplex, 3),
        (Network::Torus2d { w: 3, h: 3 }, Mode::FullDuplex, 2),
        (Network::Torus2d { w: 3, h: 3 }, Mode::FullDuplex, 3),
        (Network::DeBruijnDirected { d: 2, dd: 3 }, Mode::Directed, 2),
        (Network::DeBruijnDirected { d: 2, dd: 3 }, Mode::Directed, 3),
        (Network::Knodel { delta: 4, n: 16 }, Mode::FullDuplex, 2),
    ]
}

/// The full observable fingerprint of an outcome — everything except
/// the `threads` field, which is *supposed* to differ.
type Fingerprint = (
    Option<usize>,
    bool,
    bool,
    usize,
    usize,
    Vec<usize>,
    usize,
    usize,
    usize,
    usize,
    Option<Vec<Round>>,
);

fn fingerprint(out: &sg_search::EnumerateOutcome) -> Fingerprint {
    (
        out.best_rounds,
        out.proven_infeasible,
        out.met_floor,
        out.enumerated,
        out.pruned,
        out.pruned_per_level.clone(),
        out.stabilizer_pruned,
        out.memo_hits,
        out.memo_entries,
        out.representatives,
        out.best.as_ref().map(|p| p.period().to_vec()),
    )
}

#[test]
fn thread_budgets_give_identical_outcomes() {
    for (net, mode, s) in scenario_instances() {
        let base = enumerate(
            &net,
            mode,
            &EnumerateConfig::default().exact_period(s).threads(1),
        );
        let want = fingerprint(&base);
        for threads in [2, 8] {
            let out = enumerate(
                &net,
                mode,
                &EnumerateConfig::default().exact_period(s).threads(threads),
            );
            assert_eq!(out.threads, threads);
            assert_eq!(
                fingerprint(&out),
                want,
                "{} s={s} must be bit-identical at {threads} threads",
                net.name()
            );
        }
    }
}

/// A witness period written as `(from, to)` arcs per round.
fn witness(rounds: &[&[(u32, u32)]]) -> Option<Vec<Round>> {
    Some(
        rounds
            .iter()
            .map(|r| Round::new(r.iter().map(|&(from, to)| Arc { from, to }).collect()))
            .collect(),
    )
}

/// The exact counters and witnesses of instances big enough to
/// exercise every part of the per-node kernel (memo misses and hits,
/// stabilizer pruning, deep recursion): the seeded single pass on
/// directed `P₇` at `s = 4` (seed at 14 rounds) and half-duplex `C₈` at
/// `s = 3`, and the deepened passes on directed `DB(2,3)` at `s = 3`
/// (floor 3, caps 3, 4, 5, 7, 11; optimum 9) and the infeasible
/// directed `P₆` at `s = 3`. A kernel rewrite may change how fast these
/// numbers come out, never the numbers.
#[test]
fn kernel_counters_are_pinned() {
    let pinned: Vec<(Network, Mode, usize, Fingerprint)> = vec![
        (
            Network::Path { n: 7 },
            Mode::Directed,
            4,
            (
                Some(12),
                false,
                false,
                839_816,
                0,
                vec![0, 0, 0, 0],
                238,
                849_110,
                14_707,
                19,
                witness(&[
                    &[(0, 1), (2, 3), (4, 5)],
                    &[(1, 2), (3, 4), (5, 6)],
                    &[(2, 1), (4, 3), (6, 5)],
                    &[(1, 0), (3, 2), (5, 4)],
                ]),
            ),
        ),
        (
            Network::Cycle { n: 8 },
            Mode::HalfDuplex,
            3,
            (
                Some(10),
                false,
                false,
                55_352,
                0,
                vec![0, 0, 0],
                1086,
                45_387,
                10_559,
                8,
                witness(&[
                    &[(0, 1), (2, 3), (4, 5), (6, 7)],
                    &[(1, 2), (3, 4), (5, 6), (7, 0)],
                    &[(1, 0), (3, 2), (5, 4), (7, 6)],
                ]),
            ),
        ),
        (
            Network::DeBruijnDirected { d: 2, dd: 3 },
            Mode::Directed,
            3,
            (
                Some(9),
                false,
                false,
                39_646,
                19_920,
                vec![18, 580, 19_322],
                320,
                52_358,
                9020,
                18,
                witness(&[
                    &[(0, 1), (2, 4), (3, 6)],
                    &[(3, 7), (4, 1), (6, 5)],
                    &[(1, 3), (4, 0), (5, 2), (7, 6)],
                ]),
            ),
        ),
        (
            Network::Path { n: 6 },
            Mode::Directed,
            3,
            (
                None,
                true,
                false,
                13_871,
                3422,
                vec![10, 167, 3245],
                234,
                17_419,
                793,
                11,
                None,
            ),
        ),
    ];
    for (net, mode, s, want) in pinned {
        for threads in [1, 2] {
            let out = enumerate(
                &net,
                mode,
                &EnumerateConfig::default().exact_period(s).threads(threads),
            );
            assert_eq!(
                fingerprint(&out),
                want,
                "{} s={s} at {threads} threads",
                net.name()
            );
        }
    }
}
