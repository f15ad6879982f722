//! Differential conformance suite: every protocol of every scenario in
//! the registry, run through the three production engines — compiled,
//! persistent pool, and sparse delta — against the retained naive
//! reference, with identical `completed_at` AND identical knowledge
//! traces required.
//!
//! The reference engine (`sg_sim::reference`) is the oracle: it is the
//! original, allocation-heavy, obviously-correct implementation of
//! Definition 3.1. The production engines each take a different shortcut
//! (precompiled snapshot plans, persistent work-stealing dispatch,
//! run-compressed rows with delta skipping), so agreement across all of
//! them on the whole workload zoo pins the semantics from independent
//! directions.

use sg_scenario::descriptor::protocol_for;
use sg_scenario::registry;
use sg_sim::engine::{run_systolic, run_systolic_with_horizon};
use sg_sim::pool::run_systolic_pool;
use sg_sim::reference::run_systolic_reference;
use sg_sim::sparse::run_systolic_sparse;
use sg_sim::Knowledge;

#[test]
fn all_registry_protocols_agree_across_engines() {
    let reg = registry();
    assert_eq!(reg.len(), 40, "registry size drifted; update this suite");

    let mut pairs_checked = 0usize;
    let mut scenarios_with_protocols = 0usize;
    for scenario in &reg {
        let mut scenario_counted = false;
        for net in &scenario.networks {
            // The sim-large-* scenarios exist for the sparse engine's
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
            let pool = run_systolic_pool(&sp, n, budget, 4, true);
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
                pool.completed_at, oracle.completed_at,
                "{label}: pool completed_at"
            );
            assert_eq!(
                sparse.completed_at, oracle.completed_at,
                "{label}: sparse completed_at"
            );
            assert_eq!(compiled.trace, oracle.trace, "{label}: compiled trace");
            assert_eq!(pool.trace, oracle.trace, "{label}: pool trace");
            assert_eq!(sparse.trace, oracle.trace, "{label}: sparse trace");
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
            let mut pool_engine = sg_sim::PoolEngine::for_protocol(&sp, n, 3);
            let mut pool = Knowledge::initial(n);
            let mut sparse_engine = sg_sim::SparseEngine::for_protocol(&sp, n);
            for i in 0..6 * sp.s() + 20 {
                sg_sim::apply_round_reference(&mut oracle, sp.round_at(i));
                sched.apply(&mut compiled, i);
                pool_engine.apply(&mut pool, i);
                sparse_engine.apply(i);
                assert_eq!(compiled, oracle, "{}: compiled, round {i}", net.name());
                assert_eq!(pool, oracle, "{}: pool, round {i}", net.name());
                assert_eq!(
                    sparse_engine.to_dense(),
                    oracle,
                    "{}: sparse, round {i}",
                    net.name()
                );
            }
        }
    }
}
