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

/// The `large-sim` and `curve` rows (bar `elapsed_ms`) of three
/// large-sim units, pinned byte for byte: Knödel W(10, 2048), whose rows
/// stay interval runs to the end; Q₁₂ full-duplex, whose exchange pairs
/// double every row each round; and RR(4096, 3, 7), whose rows densify
/// so the driver hands off to the item-sliced engine. `rounds_run` and
/// `peak_state_bytes` depend on how the sparse rows are stored, not just
/// on what they hold; the registry's n = 10⁵ and 2²⁰ instances are too
/// slow for a debug build, so this is what holds those figures.
#[test]
fn large_sim_rows_are_pinned() {
    let scenarios = [
        Scenario {
            mode: Mode::FullDuplex,
            networks: vec![
                Network::Knodel { delta: 10, n: 2048 },
                Network::Hypercube { k: 12 },
            ],
            ..simulate_scenario(Network::Cycle { n: 3 })
        },
        simulate_scenario(Network::RandomRegular {
            n: 4096,
            d: 3,
            seed: 7,
        }),
    ];
    let opts = BatchOptions {
        threads: 1,
        large_sim_min_n: 2048,
        ..BatchOptions::default()
    };
    let report = run_batch(&scenarios, &opts);
    let lines: Vec<String> = report
        .outcomes
        .iter()
        .flat_map(|o| &o.rows)
        .map(|r| {
            let mut r = r.clone();
            r.fields.retain(|(name, _)| name != "elapsed_ms");
            systolic_gossip::to_json_line(&r)
        })
        .collect();
    assert_eq!(lines, PINNED_LARGE_SIM_ROWS);
}

/// Recorded from the run above; see the test for what each unit covers.
const PINNED_LARGE_SIM_ROWS: [&str; 64] = [
    r#"{"kind":"large-sim","network":"W(10,2048)","n":2048,"s":10,"protocol_mode":"full-duplex","engine":"sparse","measured_rounds":12,"rounds_run":12,"peak_state_bytes":49120,"aborted_mem":false,"verdict":"completed"}"#,
    r#"{"kind":"curve","network":"W(10,2048)","round":1,"min":2}"#,
    r#"{"kind":"curve","network":"W(10,2048)","round":2,"min":4}"#,
    r#"{"kind":"curve","network":"W(10,2048)","round":3,"min":8}"#,
    r#"{"kind":"curve","network":"W(10,2048)","round":4,"min":16}"#,
    r#"{"kind":"curve","network":"W(10,2048)","round":5,"min":32}"#,
    r#"{"kind":"curve","network":"W(10,2048)","round":6,"min":64}"#,
    r#"{"kind":"curve","network":"W(10,2048)","round":7,"min":128}"#,
    r#"{"kind":"curve","network":"W(10,2048)","round":8,"min":256}"#,
    r#"{"kind":"curve","network":"W(10,2048)","round":9,"min":512}"#,
    r#"{"kind":"curve","network":"W(10,2048)","round":10,"min":1024}"#,
    r#"{"kind":"curve","network":"W(10,2048)","round":11,"min":2046}"#,
    r#"{"kind":"curve","network":"W(10,2048)","round":12,"min":2048}"#,
    r#"{"kind":"large-sim","network":"Q_12","n":4096,"s":12,"protocol_mode":"full-duplex","engine":"sparse","measured_rounds":12,"rounds_run":12,"peak_state_bytes":32768,"aborted_mem":false,"verdict":"completed"}"#,
    r#"{"kind":"curve","network":"Q_12","round":1,"min":2}"#,
    r#"{"kind":"curve","network":"Q_12","round":2,"min":4}"#,
    r#"{"kind":"curve","network":"Q_12","round":3,"min":8}"#,
    r#"{"kind":"curve","network":"Q_12","round":4,"min":16}"#,
    r#"{"kind":"curve","network":"Q_12","round":5,"min":32}"#,
    r#"{"kind":"curve","network":"Q_12","round":6,"min":64}"#,
    r#"{"kind":"curve","network":"Q_12","round":7,"min":128}"#,
    r#"{"kind":"curve","network":"Q_12","round":8,"min":256}"#,
    r#"{"kind":"curve","network":"Q_12","round":9,"min":512}"#,
    r#"{"kind":"curve","network":"Q_12","round":10,"min":1024}"#,
    r#"{"kind":"curve","network":"Q_12","round":11,"min":2048}"#,
    r#"{"kind":"curve","network":"Q_12","round":12,"min":4096}"#,
    r#"{"kind":"large-sim","network":"RR(4096,3;7)","n":4096,"s":10,"protocol_mode":"half-duplex","engine":"sparse","measured_rounds":72,"rounds_run":72,"peak_state_bytes":166072,"aborted_mem":false,"verdict":"completed"}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":1,"min":1}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":3,"min":1}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":5,"min":1}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":7,"min":2}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":9,"min":3}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":11,"min":4}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":13,"min":7}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":15,"min":11}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":17,"min":17}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":19,"min":22}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":21,"min":22}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":23,"min":40}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":25,"min":55}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":27,"min":74}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":29,"min":99}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":31,"min":99}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":33,"min":170}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":35,"min":242}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":37,"min":332}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":39,"min":425}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":41,"min":425}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":43,"min":696}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":45,"min":921}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":47,"min":1273}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":49,"min":1523}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":51,"min":1523}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":53,"min":2209}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":55,"min":2733}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":57,"min":3217}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":59,"min":3508}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":61,"min":3508}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":63,"min":3937}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":65,"min":4059}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":67,"min":4087}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":69,"min":4091}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":71,"min":4092}"#,
    r#"{"kind":"curve","network":"RR(4096,3;7)","round":72,"min":4096}"#,
];
