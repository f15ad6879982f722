//! Differential conformance suite: every protocol of every scenario in
//! the registry, run through the three production engines — compiled,
//! sparse row table and item-sliced — against the retained naive reference,
//! with identical `completed_at` AND identical knowledge traces
//! required.
//!
//! The reference engine (`sg_sim::reference`) is the oracle: it is the
//! original, allocation-heavy, obviously-correct implementation of
//! Definition 3.1. The production engines each take a different shortcut
//! (precompiled snapshot plans, run-compressed rows with a fixed-point
//! exit, relabelled 256-item slices with a trace rebuilt from
//! per-thread gain counts kept per round and target slot), so agreement
//! across all of them on the whole workload zoo pins the semantics from
//! independent directions.

use sg_scenario::descriptor::protocol_for;
use sg_scenario::registry;
use sg_sim::engine::{run_systolic, run_systolic_with_horizon};
use sg_sim::pool::systolic_gossip_time_pool;
use sg_sim::reference::{run_systolic_reference, systolic_gossip_time_reference};
use sg_sim::sliced::{run_systolic_large, run_systolic_sliced, slice_bytes};
use sg_sim::sparse::run_systolic_sparse;
use sg_sim::{systolic_broadcast_time, Knowledge};

#[test]
fn all_registry_protocols_agree_across_engines() {
    let reg = registry();
    assert_eq!(reg.len(), 40, "registry size drifted; update this suite");

    let mut pairs_checked = 0usize;
    let mut scenarios_with_protocols = 0usize;
    for scenario in &reg {
        let mut scenario_counted = false;
        for net in &scenario.networks {
            // The sim-large-* scenarios exist for the large-sim driver's
            // production path; dense-building them here would dwarf the
            // suite. Their semantics are pinned by the same engines at
            // conformance sizes.
            if net.order_hint().is_some_and(|n| n >= 50_000) {
                continue;
            }
            let g = net.build();
            let n = g.vertex_count();
            // Directed shift networks have no deterministic protocol;
            // the batch runner falls back to diameter comparisons there.
            let Some((_, sp)) = protocol_for(net, &g, scenario.mode) else {
                continue;
            };
            sp.validate(&g)
                .unwrap_or_else(|e| panic!("{}: invalid protocol — {e}", net.name()));
            // Generous budget: every zoo protocol completes well within
            // it, and a non-completing run must agree across engines too.
            let budget = 40 * n + 200;

            let oracle = run_systolic_reference(&sp, n, budget, true);
            let compiled = run_systolic(&sp, n, budget, true);
            let sparse = run_systolic_sparse(&sp, n, budget, true);

            let label = format!("{} / {} (n = {n})", scenario.name, net.name());
            // `horizon: None` must be byte-identical to the plain
            // compiled run — the search crate relies on it.
            let horizonless = run_systolic_with_horizon(&sp, n, budget, None, true);
            assert_eq!(horizonless, compiled, "{label}: horizon None drifted");
            assert_eq!(
                compiled.completed_at, oracle.completed_at,
                "{label}: compiled completed_at"
            );
            assert_eq!(
                sparse.completed_at, oracle.completed_at,
                "{label}: sparse completed_at"
            );
            assert_eq!(compiled.trace, oracle.trace, "{label}: compiled trace");
            assert_eq!(sparse.trace, oracle.trace, "{label}: sparse trace");
            for threads in [1, 2, 4] {
                let sliced = run_systolic_sliced(&sp, n, budget, true, threads);
                assert_eq!(sliced, oracle, "{label}: sliced at {threads} threads");
            }
            assert!(
                oracle.completed_at.is_some(),
                "{label}: zoo protocol should gossip within {budget} rounds"
            );
            pairs_checked += 1;
            if !scenario_counted {
                scenario_counted = true;
                scenarios_with_protocols += 1;
            }
        }
    }
    // The zoo currently yields protocols in every scenario that lists
    // networks; guard against the suite silently going hollow.
    assert!(
        pairs_checked >= 38,
        "only {pairs_checked} (scenario, network) pairs exercised"
    );
    assert!(
        scenarios_with_protocols >= 15,
        "only {scenarios_with_protocols} scenarios exercised"
    );
}

#[test]
fn final_knowledge_states_are_bit_identical() {
    // Beyond min-count traces: the raw bit tables must match at every
    // round for a representative slice of the zoo (one protocol per
    // communication mode, including a full-duplex one).
    use systolic_gossip::Network;
    let cases = [
        Network::Hypercube { k: 6 },
        Network::Torus2d { w: 8, h: 8 },
        Network::Knodel { delta: 5, n: 64 },
        Network::DeBruijn { d: 2, dd: 6 },
    ];
    for net in cases {
        let g = net.build();
        let n = g.vertex_count();
        let modes = [
            sg_protocol::mode::Mode::HalfDuplex,
            sg_protocol::mode::Mode::FullDuplex,
        ];
        for mode in modes {
            let Some((_, sp)) = protocol_for(&net, &g, mode) else {
                continue;
            };
            let mut oracle = Knowledge::initial(n);
            let mut sched = sg_sim::CompiledSchedule::compile(sp.period(), n);
            let mut compiled = Knowledge::initial(n);
            let mut sparse = sg_sim::SparseKnowledge::new(n);
            for i in 0..6 * sp.s() + 20 {
                let round = sp.round_at(i);
                sg_sim::apply_round_reference(&mut oracle, round);
                sched.apply(&mut compiled, i);
                let arcs: Vec<(u32, u32)> = round.arcs().iter().map(|a| (a.from, a.to)).collect();
                sparse.apply_round(&arcs);
                assert_eq!(compiled, oracle, "{}: compiled, round {i}", net.name());
                assert_eq!(
                    sparse.to_dense(),
                    oracle,
                    "{}: sparse, round {i}",
                    net.name()
                );
            }
        }
    }
}

#[test]
fn thread_budget_dispatch_matches_reference_on_dense_instances() {
    // The batch runner's dense gossip time at n ≥ 2048: compiled on one
    // thread, item-sliced on more. Short runs (Q₁₁'s 11 rounds) and
    // long ones (DB(2,11)'s edge colouring, a 64×32 traffic-light grid)
    // must all give the reference's answer at every budget.
    use systolic_gossip::Network;
    let db = Network::DeBruijn { d: 2, dd: 11 }.build();
    let cases = [
        ("Q11", sg_protocol::builders::hypercube_sweep(11), 2048),
        (
            "DB(2,11)",
            sg_protocol::builders::edge_coloring_periodic(&db),
            db.vertex_count(),
        ),
        (
            "Grid(64x32)",
            sg_protocol::builders::grid_traffic_light(64, 32),
            2048,
        ),
    ];
    for (label, sp, n) in cases {
        assert!(n >= 2048, "{label}: below the within-unit threshold");
        let budget = 40 * n;
        let oracle = systolic_gossip_time_reference(&sp, n, budget);
        assert!(oracle.is_some(), "{label}: should gossip within {budget}");
        for threads in [1, 2, 4] {
            assert_eq!(
                systolic_gossip_time_pool(&sp, n, budget, threads),
                oracle,
                "{label} at {threads} threads"
            );
        }
    }
}

#[test]
fn gossip_time_is_the_slowest_single_item_broadcast() {
    // Under Definition 3.1 items spread independently — the premise of
    // the item-sliced engine. On random 3-regular graphs (unstructured
    // rows, several slices) the gossip time must equal the maximum over
    // sources of the single-item broadcast time.
    use systolic_gossip::Network;
    for (n, seed) in [(300usize, 1u64), (600, 2)] {
        let net = Network::RandomRegular { n, d: 3, seed };
        let sp = net
            .reference_protocol()
            .expect("RR has a reference protocol");
        let budget = 50 * n;
        let slowest = (0..n)
            .map(|v| systolic_broadcast_time(&sp, n, v, budget).expect("every item spreads"))
            .max();
        let sliced = run_systolic_sliced(&sp, n, budget, false, 2);
        assert_eq!(sliced.completed_at, slowest, "{}", net.name());
        assert_eq!(
            sliced.completed_at,
            run_systolic_reference(&sp, n, budget, false).completed_at
        );
    }
}

#[test]
fn large_driver_outcome_is_identical_at_any_thread_count() {
    // One instance whose rows densify (the driver hands off to the
    // sliced engine) and one whose rows stay interval runs (it stays
    // sparse): every field of the outcome, `peak_bytes` and
    // `rounds_run` included, must not depend on the thread count, and
    // the result must equal the sparse engine's own run.
    use systolic_gossip::Network;
    let cases = [
        (
            Network::RandomRegular {
                n: 2000,
                d: 3,
                seed: 3,
            },
            true,
        ),
        (Network::Knodel { delta: 11, n: 2048 }, false),
    ];
    for (net, hands_off) in cases {
        let n = net.order_hint().expect("closed-form order");
        let sp = net.reference_protocol().expect("reference protocol");
        let budget = 40 * n;
        let one = run_systolic_large(&sp, n, budget, true, Some(6 << 30), 1);
        assert_eq!(one.handoff.is_some(), hands_off, "{}", net.name());
        assert_eq!(one.result, run_systolic_sparse(&sp, n, budget, true));
        match one.handoff {
            Some(h) => {
                assert_eq!(h.slice_bytes, slice_bytes(n));
                assert!(h.sparse_bytes > h.slice_bytes);
                assert_eq!(one.peak_bytes, h.sparse_bytes);
            }
            None => assert!(one.peak_bytes <= slice_bytes(n)),
        }
        for threads in [2, 8] {
            let many = run_systolic_large(&sp, n, budget, true, Some(6 << 30), threads);
            assert_eq!(many, one, "{} at {threads} threads", net.name());
        }
    }
}
