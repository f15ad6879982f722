//! Regression test for the large-simulation routing gate. The gate
//! used to look only at `order_hint()`, so hint-less families (trees,
//! butterflies, de Bruijn, Kautz) fell through to the dense path at
//! any order — a `db:2,17` (n = 131 072) would try to allocate the
//! n²-bit `Knowledge` table and die, while a `cycle:131072` was
//! correctly routed to the sparse engine. The gate now falls back to
//! the built graph's real order. `BatchOptions::large_sim_min_n` lets
//! the test exercise the routing at toy sizes.

use sg_scenario::{
    run_batch, BatchOptions, EnumerateSpec, ExecSpec, RandomizedSpec, Scenario, SearchSpec, Task,
    WeightScheme,
};
use systolic_gossip::sg_protocol::mode::Mode;
use systolic_gossip::{Network, Value};

fn simulate_scenario(net: Network) -> Scenario {
    Scenario {
        name: "large-routing",
        summary: "routing regression harness",
        task: Task::Simulate,
        mode: Mode::HalfDuplex,
        networks: vec![net],
        degrees: Vec::new(),
        periods: Vec::new(),
        weights: WeightScheme::Unit,
        checks: Vec::new(),
        search: SearchSpec::default(),
        exec: ExecSpec::default(),
        enumerate: EnumerateSpec::default(),
        randomized: RandomizedSpec::default(),
    }
}

/// Which engine a simulate run used, read off the emitted rows:
/// the sparse path tags rows `kind = "large-sim"`, the dense path
/// `kind = "audit"`.
fn engine_kind(net: Network, large_sim_min_n: usize) -> &'static str {
    let opts = BatchOptions {
        threads: 1,
        large_sim_min_n,
        ..BatchOptions::default()
    };
    let report = run_batch(&[simulate_scenario(net)], &opts);
    let rows = &report.outcomes[0].rows;
    let kind_of = |k: &str| {
        rows.iter().any(|r| {
            r.fields
                .iter()
                .any(|(name, v)| name == "kind" && *v == Value::Text(k.to_string()))
        })
    };
    if kind_of("large-sim") {
        "sparse"
    } else if kind_of("audit") {
        "dense"
    } else {
        "none"
    }
}

/// A de Bruijn graph has `order_hint() == None`; at order ≥ the
/// threshold it must still route to the sparse engine, judged by the
/// built graph's real order (db:2,8 has 256 vertices).
#[test]
fn hintless_family_over_threshold_routes_to_sparse_engine() {
    let net = Network::DeBruijn { d: 2, dd: 8 };
    assert_eq!(
        net.order_hint(),
        None,
        "the regression needs a hint-less family"
    );
    assert_eq!(engine_kind(net, 100), "sparse");
}

/// The same hint-less family below the threshold stays on the dense
/// path (curve + λ-audit).
#[test]
fn hintless_family_under_threshold_stays_dense() {
    let net = Network::DeBruijn { d: 2, dd: 4 };
    assert_eq!(net.order_hint(), None);
    assert_eq!(engine_kind(net, 100), "dense");
}

/// Hinted families still gate on the hint (no graph build needed):
/// a cycle over the threshold goes sparse, under it stays dense.
#[test]
fn hinted_family_gates_on_the_hint() {
    assert_eq!(engine_kind(Network::Cycle { n: 128 }, 100), "sparse");
    assert_eq!(engine_kind(Network::Cycle { n: 64 }, 100), "dense");
}

/// The compare task refuses both over-threshold shapes — hinted and
/// hint-less — with the explanatory skip text instead of running the
/// dense Ω(n²) machinery.
#[test]
fn compare_unit_skips_over_threshold_orders_hint_or_not() {
    for net in [
        Network::Cycle { n: 128 },         // hint = Some(128)
        Network::DeBruijn { d: 2, dd: 8 }, // hint = None, order 256
    ] {
        let scenario = Scenario {
            task: Task::Compare,
            ..simulate_scenario(net)
        };
        let opts = BatchOptions {
            threads: 1,
            large_sim_min_n: 100,
            ..BatchOptions::default()
        };
        let report = run_batch(&[scenario], &opts);
        let outcome = &report.outcomes[0];
        assert!(outcome.rows.is_empty(), "{}: no dense rows", net.name());
        let text = outcome.text.join("\n");
        assert!(
            text.contains("dense compare unit is skipped"),
            "{}: {text}",
            net.name()
        );
    }
}

/// RR(4096, 3) through the large-sim path: its rows densify, so the
/// driver hands off to the item-sliced engine, whose slices spread over
/// the unit's threads. The rows must not depend on the thread budget
/// (only the wall-clock `elapsed_ms` may), and the text must name the
/// engine that actually ran.
#[test]
fn large_sim_rows_are_identical_across_thread_budgets() {
    let net = Network::RandomRegular {
        n: 4096,
        d: 3,
        seed: 7,
    };
    let run = |threads: usize| {
        let opts = BatchOptions {
            threads,
            large_sim_min_n: 4096,
            ..BatchOptions::default()
        };
        let report = run_batch(&[simulate_scenario(net)], &opts);
        let outcome = &report.outcomes[0];
        let lines: Vec<String> = outcome
            .rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.fields.retain(|(name, _)| name != "elapsed_ms");
                systolic_gossip::to_json_line(&r)
            })
            .collect();
        (lines, outcome.text.join("\n"))
    };
    let (one, text) = run(1);
    let (two, _) = run(2);
    assert!(
        one.iter().any(|l| l.contains("\"verdict\":\"completed\"")),
        "{one:?}"
    );
    assert_eq!(one, two);
    assert!(text.contains("item-sliced engine"), "{text}");
    assert!(text.contains("so the run restarted sliced"), "{text}");
}

/// A dense compare unit at n = 2048, the within-unit threshold: on a
/// unit budget of two threads its gossip time runs the item-sliced
/// engine, on one the compiled engine. No registry scenario reaches
/// this branch, so the registry determinism test cannot cover it; the
/// rows must be byte-identical (bar `elapsed_ms`) either way. The
/// full-duplex torus is the cheapest n = 2048 compare unit (~3 s per
/// run in a debug build).
#[test]
fn dense_compare_rows_are_identical_across_unit_thread_budgets() {
    let net = Network::Torus2d { w: 64, h: 32 };
    let run = |sim_threads: usize| {
        let scenario = Scenario {
            task: Task::Compare,
            mode: Mode::FullDuplex,
            ..simulate_scenario(net)
        };
        let opts = BatchOptions {
            threads: 2,
            sim_threads,
            ..BatchOptions::default()
        };
        let report = run_batch(&[scenario], &opts);
        report.outcomes[0]
            .rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.fields.retain(|(name, _)| name != "elapsed_ms");
                systolic_gossip::to_json_line(&r)
            })
            .collect::<Vec<_>>()
    };
    let one = run(1);
    assert!(
        one.iter().any(|l| l.contains("\"measured_rounds\":62")),
        "{one:?}"
    );
    assert_eq!(one, run(2));
}
