//! The named-scenario registry: every paper figure, the validation and
//! comparison suites of the former ad-hoc binaries, and the new topology
//! families the uniform harness unlocks.

use crate::descriptor::{ExecSpec, PaperCheck, RandomizedSpec, Scenario, Task, WeightScheme};
use sg_bounds::pfun::{BoundMode, Period};
use sg_bounds::tables::standard_periods;
use sg_bounds::{c_broadcast, e_coefficient, e_separator};
use sg_graphs::separator::{params_de_bruijn, params_wbf_undirected};
use sg_protocol::mode::Mode;
use systolic_gossip::Network;

fn systolic(range: std::ops::RangeInclusive<usize>) -> Vec<Period> {
    range.map(Period::Systolic).collect()
}

fn check(label: &'static str, expected: f64, compute: fn() -> f64) -> PaperCheck {
    PaperCheck {
        label,
        expected,
        tol: 1.2e-4,
        compute,
    }
}

/// Every named scenario, in presentation order.
pub fn registry() -> Vec<Scenario> {
    vec![
        // ——— The paper's figures ———
        Scenario::new(
            "fig4",
            "Fig. 4 — general lower bound e(s), directed & half-duplex",
            Task::Bound,
            Mode::HalfDuplex,
        )
        .periods(standard_periods())
        .checks([
            check("Fig.4 e(3)", 2.8808, || {
                e_coefficient(BoundMode::HalfDuplex, Period::Systolic(3))
            }),
            check("Fig.4 e(4)", 1.8133, || {
                e_coefficient(BoundMode::HalfDuplex, Period::Systolic(4))
            }),
            check("Fig.4 e(5)", 1.6502, || {
                e_coefficient(BoundMode::HalfDuplex, Period::Systolic(5))
            }),
            check("Fig.4 e(6)", 1.5363, || {
                e_coefficient(BoundMode::HalfDuplex, Period::Systolic(6))
            }),
            check("Fig.4 e(7)", 1.5021, || {
                e_coefficient(BoundMode::HalfDuplex, Period::Systolic(7))
            }),
            check("Fig.4 e(8)", 1.4721, || {
                e_coefficient(BoundMode::HalfDuplex, Period::Systolic(8))
            }),
            check("Fig.4 e(∞)", 1.4404, || {
                e_coefficient(BoundMode::HalfDuplex, Period::NonSystolic)
            }),
        ]),
        Scenario::new(
            "fig5",
            "Fig. 5 — systolic half-duplex lower bounds for specific networks",
            Task::Bound,
            Mode::HalfDuplex,
        )
        .degrees([2, 3])
        .periods(systolic(3..=8))
        .checks([
            check("Fig.5 WBF(2,D) s=4", 2.0218, || {
                e_separator(
                    params_wbf_undirected(2),
                    BoundMode::HalfDuplex,
                    Period::Systolic(4),
                )
                .e
            }),
            check("Fig.5 DB(2,D) s=4", 1.8133, || {
                e_separator(
                    params_de_bruijn(2),
                    BoundMode::HalfDuplex,
                    Period::Systolic(4),
                )
                .e
            }),
        ]),
        Scenario::new(
            "fig5-highdeg",
            "Fig. 5 extension — degrees 4, 5 up to s = 14 (improvements only for s > 8)",
            Task::Bound,
            Mode::HalfDuplex,
        )
        .degrees([4, 5])
        .periods(systolic(3..=14)),
        Scenario::new(
            "fig6",
            "Fig. 6 — non-systolic half-duplex lower bounds with the diameter column",
            Task::Bound,
            Mode::HalfDuplex,
        )
        .degrees([2, 3])
        .periods([Period::NonSystolic])
        .checks([
            check("Fig.6 WBF(2,D) s=∞", 1.9750, || {
                e_separator(
                    params_wbf_undirected(2),
                    BoundMode::HalfDuplex,
                    Period::NonSystolic,
                )
                .e
            }),
            check("Fig.6 DB(2,D) s=∞", 1.5876, || {
                e_separator(
                    params_de_bruijn(2),
                    BoundMode::HalfDuplex,
                    Period::NonSystolic,
                )
                .e
            }),
        ]),
        Scenario::new(
            "fig8",
            "Fig. 8 — full-duplex lower bounds; general row = broadcast constants c(s−1)",
            Task::Bound,
            Mode::FullDuplex,
        )
        .degrees([2, 3])
        .periods(standard_periods())
        .checks([
            check("c(2) of [22,2]", 1.4404, || c_broadcast(2)),
            check("c(3) of [22,2]", 1.1374, || c_broadcast(3)),
            check("c(4) of [22,2]", 1.0562, || c_broadcast(4)),
        ]),
        Scenario::new(
            "fig-matrices",
            "Figs. 1–3 and 7 — the local delay-matrix constructions",
            Task::Matrices,
            Mode::HalfDuplex,
        ),
        // ——— The former validation / comparison binaries ———
        Scenario::new(
            "curves",
            "Completion curves of the reference protocols vs their lower bounds",
            Task::Simulate,
            Mode::HalfDuplex,
        )
        .networks([
            Network::Hypercube { k: 6 },
            Network::WrappedButterfly { d: 2, dd: 4 },
            Network::DeBruijn { d: 2, dd: 6 },
        ]),
        Scenario::new(
            "diameter-bounds",
            "Section 7 — weighted-diameter matrix bounds vs exact Dijkstra diameters",
            Task::Compare,
            Mode::Directed,
        )
        .networks([
            Network::DeBruijnDirected { d: 2, dd: 8 },
            Network::DeBruijnDirected { d: 3, dd: 5 },
            Network::KautzDirected { d: 2, dd: 7 },
            Network::WrappedButterflyDirected { d: 2, dd: 5 },
        ]),
        Scenario::new(
            "diameter-bounds-weighted",
            "Section 7 on non-unit weights (1 into even vertices, 3 into odd)",
            Task::Compare,
            Mode::Directed,
        )
        .networks([Network::DeBruijnDirected { d: 2, dd: 7 }])
        .weights(WeightScheme::ParityOneThree),
        Scenario::new(
            "validate",
            "Audits, greedy upper bounds and BFS-verified separators across the workload zoo",
            Task::Compare,
            Mode::HalfDuplex,
        )
        .networks([
            Network::Path { n: 32 },
            Network::Cycle { n: 32 },
            Network::WrappedButterfly { d: 2, dd: 5 },
            Network::DeBruijn { d: 2, dd: 7 },
            Network::Kautz { d: 2, dd: 6 },
            Network::Butterfly { d: 2, dd: 4 },
            Network::Hypercube { k: 7 },
            Network::Knodel { delta: 7, n: 128 },
            Network::Grid2d { w: 10, h: 10 },
        ]),
        // ——— New topology families ———
        Scenario::new(
            "torus-sweep",
            "2-D tori under the edge-coloring protocol, growing sizes",
            Task::Simulate,
            Mode::HalfDuplex,
        )
        .networks([
            Network::Torus2d { w: 8, h: 8 },
            Network::Torus2d { w: 12, h: 12 },
            Network::Torus2d { w: 16, h: 16 },
        ]),
        Scenario::new(
            "ccc-tour",
            "Cube-connected cycles CCC(3..5): constant-degree hypercube derivatives",
            Task::Simulate,
            Mode::HalfDuplex,
        )
        .networks([
            Network::CubeConnectedCycles { k: 3 },
            Network::CubeConnectedCycles { k: 4 },
            Network::CubeConnectedCycles { k: 5 },
        ]),
        Scenario::new(
            "shuffle-exchange",
            "Shuffle-exchange networks SE(5..7) under the universal coloring protocol",
            Task::Simulate,
            Mode::HalfDuplex,
        )
        .networks([
            Network::ShuffleExchange { dd: 5 },
            Network::ShuffleExchange { dd: 6 },
            Network::ShuffleExchange { dd: 7 },
        ]),
        Scenario::new(
            "random-regular",
            "Seeded random regular graphs: audits and greedy bounds off the structured zoo",
            Task::Compare,
            Mode::HalfDuplex,
        )
        .networks([
            Network::RandomRegular {
                n: 64,
                d: 3,
                seed: 1997,
            },
            Network::RandomRegular {
                n: 128,
                d: 4,
                seed: 1997,
            },
            Network::RandomRegular {
                n: 256,
                d: 3,
                seed: 2026,
            },
        ]),
        Scenario::new(
            "knodel-family",
            "Knödel graphs W(Δ, n): the classical minimum-gossip-time family",
            Task::Simulate,
            Mode::FullDuplex,
        )
        .networks([
            Network::Knodel { delta: 4, n: 32 },
            Network::Knodel { delta: 5, n: 64 },
            Network::Knodel { delta: 6, n: 128 },
        ]),
        // ——— Large-n sparse-engine scenarios ———
        Scenario::new(
            "sim-large-knodel",
            "Knödel gossip at n = 10⁵ and 2²⁰ through the sparse row engine",
            Task::Simulate,
            Mode::FullDuplex,
        )
        .networks([
            Network::Knodel {
                delta: 16,
                n: 100_000,
            },
            Network::Knodel {
                delta: 20,
                n: 1_048_576,
            },
        ]),
        Scenario::new(
            "sim-large-rr",
            "Random regular graphs at n = 10⁵ and 10⁶: unstructured rows hand off from sparse to item-sliced",
            Task::Simulate,
            Mode::HalfDuplex,
        )
        .networks([
            Network::RandomRegular {
                n: 100_000,
                d: 3,
                seed: 1997,
            },
            Network::RandomRegular {
                n: 1_000_000,
                d: 3,
                seed: 1997,
            },
        ]),
        Scenario::new(
            "zoo-bounds",
            "Bound reports (s = 4 and non-systolic) across the whole undirected zoo",
            Task::Bound,
            Mode::HalfDuplex,
        )
        .networks([
            Network::Path { n: 32 },
            Network::Cycle { n: 32 },
            Network::Complete { n: 16 },
            Network::DaryTree { d: 2, h: 4 },
            Network::Grid2d { w: 6, h: 6 },
            Network::Torus2d { w: 6, h: 6 },
            Network::Hypercube { k: 6 },
            Network::ShuffleExchange { dd: 6 },
            Network::CubeConnectedCycles { k: 4 },
            Network::Knodel { delta: 5, n: 64 },
            Network::Butterfly { d: 2, dd: 4 },
            Network::WrappedButterfly { d: 2, dd: 4 },
            Network::DeBruijn { d: 2, dd: 6 },
            Network::Kautz { d: 2, dd: 5 },
            Network::RandomRegular {
                n: 64,
                d: 3,
                seed: 1997,
            },
        ])
        .periods([Period::Systolic(4), Period::NonSystolic]),
        // ——— Protocol synthesis (sg-search) ———
        Scenario::new(
            "search-path",
            "sg-search on P_8 — full-duplex schedules vs the n−1 diameter floor",
            Task::Search,
            Mode::FullDuplex,
        )
        .networks([Network::Path { n: 8 }])
        .periods(systolic(2..=4)),
        Scenario::new(
            "search-cycle",
            "sg-search on C_6/C_8 — full-duplex period sweep vs the n/2 diameter floor",
            Task::Search,
            Mode::FullDuplex,
        )
        .networks([Network::Cycle { n: 6 }, Network::Cycle { n: 8 }])
        .periods(systolic(2..=3)),
        Scenario::new(
            "search-cycle-s2",
            "sg-search on C_8 — half-duplex s = 2 against the paper's degenerate n−1 bound",
            Task::Search,
            Mode::HalfDuplex,
        )
        .networks([Network::Cycle { n: 8 }])
        .periods([Period::Systolic(2)]),
        Scenario::new(
            "search-hypercube",
            "sg-search on Q_2/Q_3 — full-duplex schedules vs the ⌈log₂ n⌉ doubling floor",
            Task::Search,
            Mode::FullDuplex,
        )
        .networks([Network::Hypercube { k: 2 }, Network::Hypercube { k: 3 }])
        .periods(systolic(2..=3)),
        Scenario::new(
            "search-torus",
            "sg-search on Torus(4×4) — full-duplex s = 4 vs the ⌈log₂ n⌉ doubling floor",
            Task::Search,
            Mode::FullDuplex,
        )
        .networks([Network::Torus2d { w: 4, h: 4 }])
        .periods([Period::Systolic(4)]),
        Scenario::new(
            "search-knodel",
            "sg-search on W(3,8) — can synthesis match the minimum-gossip family?",
            Task::Search,
            Mode::FullDuplex,
        )
        .networks([Network::Knodel { delta: 3, n: 8 }])
        .periods([Period::Systolic(3)]),
        // ——— Exact enumeration (settled theorems) ———
        Scenario::new(
            "enum-hypercube",
            "Exact optimum on Q_3 at s = 2 full-duplex — settles the reported gap (4 rounds)",
            Task::Enumerate,
            Mode::FullDuplex,
        )
        .networks([Network::Hypercube { k: 3 }])
        .periods([Period::Systolic(2)]),
        Scenario::new(
            "enum-cycle",
            "Exact optimum on C_8 at s = 3 full-duplex — settles the reported gap (5 rounds)",
            Task::Enumerate,
            Mode::FullDuplex,
        )
        .networks([Network::Cycle { n: 8 }])
        .periods([Period::Systolic(3)]),
        Scenario::new(
            "enum-cycle-directed",
            "Exact directed-mode optima on C_6 at s = 2, 3 — the linear s = 2 floor is off by one",
            Task::Enumerate,
            Mode::Directed,
        )
        .networks([Network::Cycle { n: 6 }])
        .periods(systolic(2..=3)),
        Scenario::new(
            "enum-path-directed",
            "Directed P_6: period 3 is provably infeasible (10 arcs, 9 slots), period 4 gossips",
            Task::Enumerate,
            Mode::Directed,
        )
        .networks([Network::Path { n: 6 }])
        .periods(systolic(3..=4)),
        // ——— Stabilizer-chain reach: richer families (PR 5) ———
        Scenario::new(
            "enum-knodel",
            "Exact optima on W(3,8): the minimum-gossip family meets its doubling floor at s = 3",
            Task::Enumerate,
            Mode::FullDuplex,
        )
        .networks([Network::Knodel { delta: 3, n: 8 }])
        .periods(systolic(2..=3)),
        Scenario::new(
            "enum-torus-3x3",
            "Exact optima on Torus(3×3) (|Aut| = 72): s = 2 forces 9 rounds, s = 3 only 5",
            Task::Enumerate,
            Mode::FullDuplex,
        )
        .networks([Network::Torus2d { w: 3, h: 3 }])
        .periods(systolic(2..=3)),
        Scenario::new(
            "enum-debruijn-directed",
            "Exact directed optima on DB(2,3): the linear s = 2 floor is off by one (8 rounds)",
            Task::Enumerate,
            Mode::Directed,
        )
        .networks([Network::DeBruijnDirected { d: 2, dd: 3 }])
        .periods(systolic(2..=3)),
        // ——— Individualization–refinement reach (parallel pass) ———
        Scenario::new(
            "enum-knodel-w416",
            "Exact optimum on W(4,16) at s = 2: provably cannot double — 8 rounds vs floor 4",
            Task::Enumerate,
            Mode::FullDuplex,
        )
        .networks([Network::Knodel { delta: 4, n: 16 }])
        .periods([Period::Systolic(2)]),
        // ——— Distributed execution under faults (sg-exec) ———
        Scenario::new(
            "exec-conformance",
            "Fault-free message-passing execution matches the lockstep simulator round for round",
            Task::Execute,
            Mode::FullDuplex,
        )
        .networks([
            Network::Path { n: 8 },
            Network::Hypercube { k: 3 },
            Network::Knodel { delta: 3, n: 8 },
            Network::Torus2d { w: 4, h: 4 },
        ]),
        Scenario::new(
            "exec-lossy",
            "Execution under 5% link drops: the repeating period is the retransmission loop",
            Task::Execute,
            Mode::FullDuplex,
        )
        .networks([
            Network::Hypercube { k: 4 },
            Network::Knodel { delta: 4, n: 16 },
        ])
        .exec_spec(ExecSpec {
            drop_prob: 0.05,
            ..ExecSpec::default()
        }),
        Scenario::new(
            "exec-delayed",
            "Execution under random delivery delays (≤ 2 rounds) on top of 1% drops",
            Task::Execute,
            Mode::HalfDuplex,
        )
        .networks([
            Network::Torus2d { w: 4, h: 4 },
            Network::DeBruijn { d: 2, dd: 4 },
        ])
        .exec_spec(ExecSpec {
            drop_prob: 0.01,
            max_delay: 2,
            ..ExecSpec::default()
        }),
        Scenario::new(
            "exec-crash",
            "Node 0 crashes at round 2 and warm-restarts at round 6: knowledge survives, lost rounds are re-sent",
            Task::Execute,
            Mode::FullDuplex,
        )
        .networks([
            Network::Hypercube { k: 4 },
            Network::Knodel { delta: 4, n: 16 },
        ])
        .exec_spec(ExecSpec {
            crashes: vec![(0, 2, Some(6))],
            ..ExecSpec::default()
        }),
        // ——— Randomized baselines (push / pull / exchange) ———
        Scenario::new(
            "rand-cycle",
            "Randomized gossip on C_64: Θ(n) stopping times vs the exact systolic optimum",
            Task::Randomized,
            Mode::HalfDuplex,
        )
        .networks([Network::Cycle { n: 64 }]),
        Scenario::new(
            "rand-hypercube",
            "Randomized gossip on Q_8: Θ(log n) trials vs the dimension-sweep optimum",
            Task::Randomized,
            Mode::FullDuplex,
        )
        .networks([Network::Hypercube { k: 8 }]),
        Scenario::new(
            "rand-knodel",
            "Randomized gossip on W(6,64) vs the minimum-gossip-family optimum",
            Task::Randomized,
            Mode::FullDuplex,
        )
        .networks([Network::Knodel { delta: 6, n: 64 }]),
        Scenario::new(
            "rand-large-rr",
            "Randomized gossip at n = 10⁵ on a random 3-regular graph: sparse rows, ⌈lg n⌉ doubling floor",
            Task::Randomized,
            Mode::HalfDuplex,
        )
        .networks([Network::RandomRegular {
            n: 100_000,
            d: 3,
            seed: 1997,
        }])
        .randomized_spec(RandomizedSpec {
            trials: 3,
            ..RandomizedSpec::default()
        }),
    ]
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_twelve_scenarios_with_unique_names() {
        let reg = registry();
        assert!(reg.len() >= 12, "{} scenarios", reg.len());
        let mut names: Vec<&str> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate scenario names");
    }

    #[test]
    fn every_paper_figure_is_registered() {
        for name in ["fig4", "fig5", "fig6", "fig8", "fig-matrices"] {
            assert!(find(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn new_families_are_registered() {
        for name in [
            "torus-sweep",
            "ccc-tour",
            "shuffle-exchange",
            "random-regular",
            "knodel-family",
        ] {
            assert!(find(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn search_scenarios_are_registered_with_exact_period_sweeps() {
        for name in [
            "search-path",
            "search-cycle",
            "search-cycle-s2",
            "search-hypercube",
            "search-torus",
            "search-knodel",
        ] {
            let sc = find(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(sc.task, Task::Search, "{name}");
            assert!(!sc.networks.is_empty(), "{name}: needs networks");
            assert!(
                !sc.periods.is_empty()
                    && sc
                        .periods
                        .iter()
                        .all(|p| matches!(p, Period::Systolic(s) if *s >= 2)),
                "{name}: search sweeps exact systolic periods"
            );
            // Small n only: synthesis sweeps are exponential-ish in spirit.
            for net in &sc.networks {
                assert!(
                    net.build().vertex_count() <= 16,
                    "{name}: keep searches small"
                );
            }
        }
    }

    #[test]
    fn enumerate_scenarios_are_registered_small_and_exact_period() {
        let mut directed = 0;
        for name in [
            "enum-hypercube",
            "enum-cycle",
            "enum-cycle-directed",
            "enum-path-directed",
            "enum-knodel",
            "enum-torus-3x3",
            "enum-debruijn-directed",
            "enum-knodel-w416",
        ] {
            let sc = find(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(sc.task, Task::Enumerate, "{name}");
            assert!(!sc.networks.is_empty(), "{name}: needs networks");
            assert!(
                !sc.periods.is_empty()
                    && sc
                        .periods
                        .iter()
                        .all(|p| matches!(p, Period::Systolic(s) if *s >= 2)),
                "{name}: enumeration sweeps exact systolic periods"
            );
            if sc.mode == Mode::Directed {
                directed += 1;
            }
            // Exhaustive enumeration must stay small even with the
            // stabilizer-chain pruning.
            for net in &sc.networks {
                assert!(
                    net.build().vertex_count() <= 16,
                    "{name}: keep enumerations small"
                );
            }
        }
        assert!(directed >= 2, "directed-mode enumeration variants exist");
        // The stabilizer-chain reach: at least one enumeration network
        // with a rich automorphism group (|Aut| ≥ 16).
        let torus = find("enum-torus-3x3").unwrap();
        let g = torus.networks[0].build();
        assert!(sg_graphs::group::automorphism_group(&g).order() >= 16);
    }

    #[test]
    fn execute_scenarios_are_registered_small_with_sound_fault_plans() {
        let mut faulty = 0;
        for name in [
            "exec-conformance",
            "exec-lossy",
            "exec-delayed",
            "exec-crash",
        ] {
            let sc = find(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(sc.task, Task::Execute, "{name}");
            assert!(!sc.networks.is_empty(), "{name}: needs networks");
            assert!(
                (0.0..1.0).contains(&sc.exec.drop_prob),
                "{name}: drop probability must stay below certain loss"
            );
            for &(node, at, restart) in &sc.exec.crashes {
                assert!(
                    restart.is_none_or(|r| r > at),
                    "{name}: restart after crash"
                );
                for net in &sc.networks {
                    assert!(
                        (node as usize) < net.build().vertex_count(),
                        "{name}: crash node exists in every network"
                    );
                }
            }
            if sc.exec != ExecSpec::default() {
                faulty += 1;
            }
            // Execution fleets are per-node dense: keep them small.
            for net in &sc.networks {
                assert!(
                    net.build().vertex_count() <= 64,
                    "{name}: keep execution fleets small"
                );
            }
        }
        assert_eq!(faulty, 3, "lossy, delayed and crash variants inject faults");
        // The conformance scenario is exactly the fault-free plan.
        let conf = find("exec-conformance").unwrap();
        assert_eq!(conf.exec, ExecSpec::default());
        assert_eq!(
            registry().len(),
            40,
            "registry grew to 40 with the randomized-baseline scenarios"
        );
    }

    #[test]
    fn randomized_scenarios_are_registered_undirected_with_sound_specs() {
        let mut large = 0;
        for name in [
            "rand-cycle",
            "rand-hypercube",
            "rand-knodel",
            "rand-large-rr",
        ] {
            let sc = find(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(sc.task, Task::Randomized, "{name}");
            assert!(!sc.networks.is_empty(), "{name}: needs networks");
            assert!(sc.randomized.trials >= 1, "{name}: needs trials");
            for net in &sc.networks {
                // Pull/exchange read along the reversed arc: the model is
                // only defined on symmetric networks.
                assert!(!net.is_directed(), "{name}: {} is directed", net.name());
                if net.order_hint().is_some_and(|n| n >= 100_000) {
                    large += 1;
                    // Large batches stay feasible: a few trials, and the
                    // worst-case dense state fits the memory ceiling.
                    assert!(sc.randomized.trials <= 8, "{name}: too many large trials");
                } else {
                    // Small batches carry the statistics: enough trials
                    // for the Θ-bound suite to be stable.
                    assert!(sc.randomized.trials >= 100, "{name}: too few trials");
                    assert!(
                        net.build().vertex_count() <= 1024,
                        "{name}: keep statistical batches small"
                    );
                }
            }
        }
        assert_eq!(large, 1, "exactly one n ≥ 10⁵ randomized point");
    }

    #[test]
    fn find_is_exact() {
        assert!(find("fig5").is_some());
        assert!(find("fig7").is_none());
        assert_eq!(find("curves").unwrap().task, Task::Simulate);
    }

    #[test]
    fn scenario_networks_build() {
        for sc in registry() {
            for net in &sc.networks {
                // Large-n networks are gated on a closed-form order hint
                // (the runner never dense-builds them in tests); building
                // a 10⁶-vertex random graph here would dominate the suite.
                if let Some(n) = net.order_hint().filter(|&n| n >= 50_000) {
                    assert!(n > 0, "{}: {}", sc.name, net.name());
                    continue;
                }
                let g = net.build();
                assert!(g.vertex_count() > 0, "{}: {}", sc.name, net.name());
                if let Some(hint) = net.order_hint() {
                    assert_eq!(hint, g.vertex_count(), "{}: {}", sc.name, net.name());
                }
            }
        }
    }

    #[test]
    fn large_sim_scenarios_are_shaped_for_the_sparse_engine() {
        for name in ["sim-large-knodel", "sim-large-rr"] {
            let sc = find(name).unwrap_or_else(|| panic!("{name} registered"));
            assert_eq!(sc.task, Task::Simulate, "{name}");
            assert_eq!(sc.networks.len(), 2, "{name}");
            for net in &sc.networks {
                let n = net
                    .order_hint()
                    .unwrap_or_else(|| panic!("{name}: {} needs an order hint", net.name()));
                assert!(n >= 100_000, "{name}: {} too small", net.name());
            }
        }
    }
}
